// Package trace models plain-text I/O access patterns: chronological lists
// of I/O operations, each carrying an operation name, a file handle, and an
// optional byte count and memory address.
//
// This is the representation described in §3.1 of Torres et al. (PaCT 2017):
// "The I/O access pattern files are plain text files where each line
// corresponds to an operation." Operations are registered chronologically;
// several file handles may be interleaved.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Op is a single I/O operation from a trace.
type Op struct {
	// Name is the operation name, e.g. "open", "read", "write", "lseek",
	// "close". Names are case-sensitive and compared verbatim.
	Name string
	// Handle identifies the file handle (descriptor) the operation acts on.
	Handle int
	// Bytes is the number of bytes involved in the operation, or 0 when the
	// operation has no byte count (open, close, lseek, ...).
	Bytes int64
	// Addr is the memory address associated with data operations, or 0. The
	// paper ignores addresses entirely (§3.1: "the memory addresses are
	// ignored completely"); they are retained here only so traces round-trip
	// through the text format.
	Addr uint64
	// Path is the file path associated with open operations, if known.
	Path string
}

// IsOpen reports whether the operation opens its handle.
func (o Op) IsOpen() bool { return o.Name == "open" }

// IsClose reports whether the operation closes its handle.
func (o Op) IsClose() bool { return o.Name == "close" }

// String renders the op in the canonical one-line text format.
func (o Op) String() string {
	var b strings.Builder
	b.WriteString(o.Name)
	fmt.Fprintf(&b, " fh=%d", o.Handle)
	if o.Bytes != 0 {
		fmt.Fprintf(&b, " bytes=%d", o.Bytes)
	}
	if o.Addr != 0 {
		fmt.Fprintf(&b, " addr=0x%x", o.Addr)
	}
	if o.Path != "" {
		fmt.Fprintf(&b, " path=%q", o.Path)
	}
	return b.String()
}

// Trace is a chronological I/O access pattern.
type Trace struct {
	// Name is an optional identifier (file name, benchmark run id, ...).
	Name string
	// Label is an optional ground-truth category used by the evaluation
	// harness (e.g. "A" for Flash I/O). It is not part of the on-disk format
	// header unless set.
	Label string
	// Ops are the operations in chronological order.
	Ops []Op
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	c := &Trace{Name: t.Name, Label: t.Label, Ops: make([]Op, len(t.Ops))}
	copy(c.Ops, t.Ops)
	return c
}

// Append adds an operation.
func (t *Trace) Append(op Op) { t.Ops = append(t.Ops, op) }

// Len returns the number of operations.
func (t *Trace) Len() int { return len(t.Ops) }

// Handles returns the distinct handles in order of first appearance.
func (t *Trace) Handles() []int {
	seen := map[int]bool{}
	var hs []int
	for _, op := range t.Ops {
		if !seen[op.Handle] {
			seen[op.Handle] = true
			hs = append(hs, op.Handle)
		}
	}
	return hs
}

// OpNames returns the distinct operation names, sorted.
func (t *Trace) OpNames() []string {
	seen := map[string]bool{}
	for _, op := range t.Ops {
		seen[op.Name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalBytes returns the sum of byte counts over all operations.
func (t *Trace) TotalBytes() int64 {
	var sum int64
	for _, op := range t.Ops {
		sum += op.Bytes
	}
	return sum
}

// CountByName returns how many operations have the given name.
func (t *Trace) CountByName(name string) int {
	n := 0
	for _, op := range t.Ops {
		if op.Name == name {
			n++
		}
	}
	return n
}

// Validate checks structural sanity: every close has a preceding open on the
// same handle that has not already been closed, and handles are non-negative.
// Traces violating this are still convertible (the tree builder tolerates
// them), but generators and parsers use Validate in tests.
func (t *Trace) Validate() error {
	open := map[int]bool{}
	for i, op := range t.Ops {
		if op.Handle < 0 {
			return fmt.Errorf("trace %q: op %d (%s): negative handle %d", t.Name, i, op.Name, op.Handle)
		}
		switch {
		case op.IsOpen():
			if open[op.Handle] {
				return fmt.Errorf("trace %q: op %d: handle %d opened twice without close", t.Name, i, op.Handle)
			}
			open[op.Handle] = true
		case op.IsClose():
			if !open[op.Handle] {
				return fmt.Errorf("trace %q: op %d: close of handle %d that is not open", t.Name, i, op.Handle)
			}
			open[op.Handle] = false
		}
	}
	return nil
}
