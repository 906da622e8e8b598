// Package token implements the weighted-string representation of §3.1 of
// Torres et al. (PaCT 2017): a pattern tree is flattened in pre-order into a
// sequence of weighted tokens.
//
// Token literals:
//
//	[ROOT], [HANDLE], [BLOCK]  interior nodes; weight always 1
//	name[bytes]                operation leaves; weight = repetition count
//	[LEVEL_UP]                 emitted when the pre-order traversal moves up
//	                           one or more levels before the next node;
//	                           weight = number of levels jumped
//
// There is no level-down token: descending one level between consecutive
// tokens is implicit ("the number of levels jumped from a parent to a child
// is always 1").
package token

import (
	"fmt"
	"strconv"
	"strings"
)

// Reserved structural literals.
const (
	LitRoot    = "[ROOT]"
	LitHandle  = "[HANDLE]"
	LitBlock   = "[BLOCK]"
	LitLevelUp = "[LEVEL_UP]"
)

// Token is a weighted token: a literal and a positive weight.
type Token struct {
	Literal string
	Weight  int
}

// String renders the token in the canonical "literal:weight" text form.
func (t Token) String() string {
	var num [20]byte
	return t.Literal + ":" + string(strconv.AppendInt(num[:0], int64(t.Weight), 10))
}

// IsStructural reports whether the token is one of the reserved tree
// literals rather than an operation.
func (t Token) IsStructural() bool {
	switch t.Literal {
	case LitRoot, LitHandle, LitBlock, LitLevelUp:
		return true
	}
	return false
}

// OpLiteral builds the leaf literal for an operation name and byte count,
// e.g. "read[4096]" or "lseek+write[512]".
func OpLiteral(name string, bytes int64) string {
	var num [20]byte
	return name + "[" + string(strconv.AppendInt(num[:0], bytes, 10)) + "]"
}

// String is a weighted string: a sequence of weighted tokens. (The paper:
// "a weighted string is a set of consecutive weighted tokens".)
type String []Token

// Weight returns the summation of the weights of all tokens (the paper's
// "weight of a string").
func (s String) Weight() int {
	total := 0
	for _, t := range s {
		total += t.Weight
	}
	return total
}

// WeightAtLeast returns the summation of the weights of the tokens whose
// weight is greater than or equal to n — the paper's weight_{w>=n} function
// used by the Eq. 12 normalisation.
func (s String) WeightAtLeast(n int) int {
	total := 0
	for _, t := range s {
		if t.Weight >= n {
			total += t.Weight
		}
	}
	return total
}

// Literals returns the token literals in order.
func (s String) Literals() []string {
	out := make([]string, len(s))
	for i, t := range s {
		out[i] = t.Literal
	}
	return out
}

// Format renders the string in the canonical text form: tokens separated by
// single spaces.
func (s String) Format() string {
	n := 0
	for _, t := range s {
		n += len(t.Literal) + 6 // ':', a weight of up to four digits, ' '
	}
	var b strings.Builder
	b.Grow(n)
	var num [20]byte
	for i, t := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Literal)
		b.WriteByte(':')
		b.Write(strconv.AppendInt(num[:0], int64(t.Weight), 10))
	}
	return b.String()
}

// Equal reports whether two weighted strings are identical token for token.
func (s String) Equal(o String) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the string.
func (s String) Clone() String {
	c := make(String, len(s))
	copy(c, s)
	return c
}

// Validate checks that every token has a non-empty literal and positive
// weight, and that literals contain no whitespace or ':' (which would break
// the text format).
func (s String) Validate() error {
	for i, t := range s {
		if t.Literal == "" {
			return fmt.Errorf("token %d: empty literal", i)
		}
		if t.Weight < 1 {
			return fmt.Errorf("token %d (%s): weight %d < 1", i, t.Literal, t.Weight)
		}
		if strings.ContainsAny(t.Literal, " \t\n:") {
			return fmt.Errorf("token %d: literal %q contains reserved characters", i, t.Literal)
		}
	}
	return nil
}

// Parse reads the canonical text form produced by Format: whitespace-
// separated "literal:weight" tokens.
func Parse(text string) (String, error) {
	fields := strings.Fields(text)
	s := make(String, 0, len(fields))
	for i, f := range fields {
		colon := strings.LastIndexByte(f, ':')
		if colon <= 0 || colon == len(f)-1 {
			return nil, fmt.Errorf("token %d: %q is not literal:weight", i, f)
		}
		w, err := strconv.Atoi(f[colon+1:])
		if err != nil {
			return nil, fmt.Errorf("token %d: bad weight in %q: %v", i, f, err)
		}
		if w < 1 {
			return nil, fmt.Errorf("token %d: weight %d < 1 in %q", i, w, f)
		}
		s = append(s, Token{Literal: f[:colon], Weight: w})
	}
	return s, nil
}
