package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Canonical text format, one operation per line:
//
//	# comment
//	% name=<trace name> label=<category>     (optional header directives)
//	open fh=1 path="out.dat"
//	write fh=1 bytes=1024
//	read fh=1 bytes=512 addr=0x7f001000
//	close fh=1
//
// The first whitespace-separated field is the operation name; the remaining
// fields are key=value pairs in any order. Unknown keys are rejected so that
// format drift is caught early. Blank lines and lines starting with '#' are
// ignored.

// ParseError describes a parse failure with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("trace: line %d: %s", e.Line, e.Msg)
}

// maxLine bounds one line of trace text, line terminator included. A
// longer line is refused with an error wrapping bufio.ErrTooLong: Parse's
// scanner cannot buffer it, and ParseString refuses the same lines so the
// two accept the same inputs.
const maxLine = 4 << 20

// Parse reads a trace in the canonical text format.
func Parse(r io.Reader) (*Trace, error) {
	var p parser
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	for sc.Scan() {
		if err := p.line(sc.Text()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return &p.t, nil
}

// ParseString is Parse over a string. It reads the lines of s in place:
// the names, paths and header values of the returned trace are substrings
// of s and share its memory.
func ParseString(s string) (*Trace, error) {
	var p parser
	if err := p.text(s); err != nil {
		return nil, err
	}
	return &p.t, nil
}

// ScanString reads s as ParseString does, but hands each operation to fn
// as its line is read instead of collecting it: the returned trace holds
// the header's Name and Label and no Ops. fn may have seen some of the
// operations when ScanString returns an error, which is the one
// ParseString returns for s.
func ScanString(s string, fn func(Op)) (Trace, error) {
	p := parser{emit: fn}
	err := p.text(s)
	return p.t, err
}

// parser accumulates a trace one line at a time.
type parser struct {
	t      Trace
	lineno int
	// emit, when set, receives each operation in place of t.Ops.
	emit func(Op)
}

// text parses every line of s.
func (p *parser) text(s string) error {
	for s != "" {
		line, rest, _ := strings.Cut(s, "\n")
		if len(line) >= maxLine {
			return fmt.Errorf("trace: read: %w", bufio.ErrTooLong)
		}
		if err := p.line(line); err != nil {
			return err
		}
		s = rest
	}
	return nil
}

// line parses one line, without its terminator.
func (p *parser) line(line string) error {
	p.lineno++
	line = strings.TrimSpace(line)
	if line == "" || line[0] == '#' {
		return nil
	}
	if line[0] == '%' {
		if err := parseHeader(&p.t, strings.TrimSpace(line[1:])); err != nil {
			return &ParseError{p.lineno, err.Error()}
		}
		return nil
	}
	op, err := parseOpLine(line)
	if err != nil {
		return &ParseError{p.lineno, err.Error()}
	}
	if p.emit != nil {
		p.emit(op)
		return nil
	}
	if len(p.t.Ops) == cap(p.t.Ops) {
		// Double from a fixed start, whatever the input's size: append's
		// growth for large slices is 1.25x, which would allocate about
		// five times the final slice along the way.
		grown := make([]Op, len(p.t.Ops), 2*cap(p.t.Ops)+64)
		copy(grown, p.t.Ops)
		p.t.Ops = grown
	}
	p.t.Ops = append(p.t.Ops, op)
	return nil
}

func parseHeader(t *Trace, rest string) error {
	var buf [4]string
	fields, err := splitFields(buf[:0], rest)
	if err != nil {
		return err
	}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("header field %q is not key=value", f)
		}
		switch k {
		case "name":
			name, err := unquote(v)
			if err != nil {
				return err
			}
			t.Name = name
		case "label":
			label, err := unquote(v)
			if err != nil {
				return err
			}
			t.Label = label
		default:
			return fmt.Errorf("unknown header key %q", k)
		}
	}
	return nil
}

func parseOpLine(line string) (Op, error) {
	var buf [8]string
	fields, err := splitFields(buf[:0], line)
	if err != nil {
		return Op{}, err
	}
	if len(fields) == 0 {
		return Op{}, fmt.Errorf("empty operation line")
	}
	op := Op{Name: fields[0]}
	if op.Name == "" {
		return Op{}, fmt.Errorf("missing operation name")
	}
	sawHandle := false
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Op{}, fmt.Errorf("field %q is not key=value", f)
		}
		switch k {
		case "fh":
			h, err := strconv.Atoi(v)
			if err != nil {
				return Op{}, fmt.Errorf("bad handle %q: %v", v, err)
			}
			op.Handle = h
			sawHandle = true
		case "bytes":
			b, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Op{}, fmt.Errorf("bad byte count %q: %v", v, err)
			}
			if b < 0 {
				return Op{}, fmt.Errorf("negative byte count %d", b)
			}
			op.Bytes = b
		case "addr":
			a, err := strconv.ParseUint(strings.TrimPrefix(v, "0x"), 16, 64)
			if err != nil {
				return Op{}, fmt.Errorf("bad address %q: %v", v, err)
			}
			op.Addr = a
		case "path":
			path, err := unquote(v)
			if err != nil {
				return Op{}, err
			}
			op.Path = path
		default:
			return Op{}, fmt.Errorf("unknown key %q", k)
		}
	}
	if !sawHandle {
		return Op{}, fmt.Errorf("operation %q missing fh=", op.Name)
	}
	return op, nil
}

// splitFields appends the fields of line to dst. Fields are separated by
// spaces and tabs, but a quoted value (path="a b") stays whole, with
// backslash escapes honoured inside the quotes so values produced by %q
// round-trip. Each field is a substring of line: quotes and escapes are
// kept, and unquote decodes them.
func splitFields(dst []string, line string) ([]string, error) {
	start := -1 // start of the current field, or -1 between fields
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case inQuote && c == '\\':
			i++ // the escaped byte belongs to the field whatever it is
		case (c == ' ' || c == '\t') && !inQuote:
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		default:
			if c == '"' {
				inQuote = !inQuote
			}
			if start < 0 {
				start = i
			}
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst, nil
}

// unquote decodes a quoted value. Unquoted values pass through verbatim;
// anything that starts with '"' must be a well-formed Go quoted string in
// its entirety (trailing garbage after the closing quote is an error, so
// malformed inputs are rejected instead of silently mangled).
func unquote(s string) (string, error) {
	if len(s) == 0 || s[0] != '"' {
		return s, nil
	}
	u, err := strconv.Unquote(s)
	if err != nil {
		return "", fmt.Errorf("malformed quoted value %s", s)
	}
	return u, nil
}

// Format writes the trace in the canonical text format. Parse(Format(t))
// round-trips exactly: names, labels and paths are quoted, whatever they
// hold. Op names are written bare, so they must be single fields.
func Format(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if t.Name != "" || t.Label != "" {
		fmt.Fprint(bw, "%")
		if t.Name != "" {
			fmt.Fprintf(bw, " name=%q", t.Name)
		}
		if t.Label != "" {
			fmt.Fprintf(bw, " label=%q", t.Label)
		}
		fmt.Fprintln(bw)
	}
	for _, op := range t.Ops {
		fmt.Fprintln(bw, op.String())
	}
	return bw.Flush()
}

// FormatString is Format into a string.
func FormatString(t *Trace) string {
	var b strings.Builder
	_ = Format(&b, t) // strings.Builder writes cannot fail
	return b.String()
}
