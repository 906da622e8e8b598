package trace

import (
	"bufio"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"iokast/internal/xrand"
)

func sample() *Trace {
	return &Trace{
		Name:  "t1",
		Label: "A",
		Ops: []Op{
			{Name: "open", Handle: 1, Path: "out.dat"},
			{Name: "write", Handle: 1, Bytes: 1024},
			{Name: "read", Handle: 1, Bytes: 512, Addr: 0x7f001000},
			{Name: "close", Handle: 1},
		},
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := sample()
	b := a.Clone()
	b.Ops[0].Name = "mutated"
	b.Name = "other"
	if a.Ops[0].Name != "open" || a.Name != "t1" {
		t.Fatal("Clone shares state with original")
	}
}

func TestHandlesFirstAppearanceOrder(t *testing.T) {
	tr := &Trace{Ops: []Op{
		{Name: "open", Handle: 3},
		{Name: "open", Handle: 1},
		{Name: "write", Handle: 3, Bytes: 8},
		{Name: "open", Handle: 2},
	}}
	got := tr.Handles()
	want := []int{3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Handles = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Handles = %v, want %v", got, want)
		}
	}
}

func TestOpNamesSorted(t *testing.T) {
	tr := sample()
	got := tr.OpNames()
	want := []string{"close", "open", "read", "write"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("OpNames = %v, want %v", got, want)
	}
}

func TestTotalBytesAndCount(t *testing.T) {
	tr := sample()
	if tr.TotalBytes() != 1536 {
		t.Fatalf("TotalBytes = %d, want 1536", tr.TotalBytes())
	}
	if tr.CountByName("read") != 1 || tr.CountByName("nope") != 0 {
		t.Fatal("CountByName wrong")
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsDoubleOpen(t *testing.T) {
	tr := &Trace{Ops: []Op{
		{Name: "open", Handle: 1},
		{Name: "open", Handle: 1},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("expected error for double open")
	}
}

func TestValidateRejectsStrayClose(t *testing.T) {
	tr := &Trace{Ops: []Op{{Name: "close", Handle: 1}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("expected error for close without open")
	}
}

func TestValidateRejectsNegativeHandle(t *testing.T) {
	tr := &Trace{Ops: []Op{{Name: "read", Handle: -1}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("expected error for negative handle")
	}
}

func TestValidateAllowsReopen(t *testing.T) {
	tr := &Trace{Ops: []Op{
		{Name: "open", Handle: 1},
		{Name: "close", Handle: 1},
		{Name: "open", Handle: 1},
		{Name: "close", Handle: 1},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sample()
	s := FormatString(tr)
	got, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString: %v\ninput:\n%s", err, s)
	}
	if got.Name != tr.Name || got.Label != tr.Label {
		t.Fatalf("metadata round-trip: got %q/%q", got.Name, got.Label)
	}
	if len(got.Ops) != len(tr.Ops) {
		t.Fatalf("op count %d, want %d", len(got.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d: got %+v, want %+v", i, got.Ops[i], tr.Ops[i])
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	names := []string{"open", "read", "write", "lseek", "close", "fsync"}
	f := func(seed uint64, n uint8) bool {
		r := xrand.New(seed)
		tr := &Trace{Name: "q", Label: "X"}
		for i := 0; i < int(n%50)+1; i++ {
			op := Op{
				Name:   names[r.Intn(len(names))],
				Handle: r.Intn(8),
			}
			if op.Name == "read" || op.Name == "write" {
				op.Bytes = int64(r.Intn(1 << 20))
			}
			if r.Bool(0.2) {
				op.Addr = r.Uint64() >> 16
			}
			if op.Name == "open" && r.Bool(0.5) {
				op.Path = "file with space.dat"
			}
			tr.Append(op)
		}
		got, err := ParseString(FormatString(tr))
		if err != nil {
			return false
		}
		if len(got.Ops) != len(tr.Ops) {
			return false
		}
		for i := range tr.Ops {
			if got.Ops[i] != tr.Ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
% name="x" label="B"

read fh=3 bytes=10
`
	tr, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "x" || tr.Label != "B" || tr.Len() != 1 {
		t.Fatalf("parsed %+v", tr)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"missing fh", "read bytes=10"},
		{"bad fh", "read fh=zz"},
		{"bad bytes", "read fh=1 bytes=abc"},
		{"negative bytes", "read fh=1 bytes=-5"},
		{"unknown key", "read fh=1 color=red"},
		{"bad header", "% nope"},
		{"unknown header key", "% foo=bar"},
		{"bad addr", "read fh=1 addr=0xZZ"},
		{"not key=value", "read fh"},
		{"unterminated quote", `open fh=1 path="broken`},
	}
	for _, c := range cases {
		if _, err := ParseString(c.in); err == nil {
			t.Errorf("%s: expected error for %q", c.name, c.in)
		}
	}
}

// A header value with a space is quoted by Format and must come back whole.
func TestRoundTripSpacedHeader(t *testing.T) {
	tr := &Trace{Name: "run 1", Label: "big job", Ops: []Op{{Name: "read", Handle: 1, Bytes: 8}}}
	text := FormatString(tr)
	got, err := ParseString(text)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", text, err)
	}
	if got.Name != tr.Name || got.Label != tr.Label || len(got.Ops) != 1 || got.Ops[0] != tr.Ops[0] {
		t.Fatalf("round trip of %q: got %+v", text, got)
	}
}

// ParseString reads its lines in place but keeps the 4 MiB line bound of
// Parse's scanner, at the same length, with or without a final newline.
func TestParseLineBound(t *testing.T) {
	for _, n := range []int{maxLine - 1, maxLine} {
		line := "#" + strings.Repeat("x", n-1)
		for _, body := range []string{line, line + "\n", "read fh=1\n" + line + "\nread fh=2\n"} {
			fromString, errString := ParseString(body)
			fromReader, errReader := Parse(strings.NewReader(body))
			if n < maxLine {
				if errString != nil || errReader != nil {
					t.Fatalf("%d-byte line refused: ParseString %v, Parse %v", n, errString, errReader)
				}
				if len(fromString.Ops) != len(fromReader.Ops) {
					t.Fatalf("%d-byte line: ParseString read %d ops, Parse %d", n, len(fromString.Ops), len(fromReader.Ops))
				}
				continue
			}
			for _, err := range []error{errString, errReader} {
				if !errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("%d-byte line: error %v, want one wrapping bufio.ErrTooLong", n, err)
				}
			}
			if errString.Error() != errReader.Error() {
				t.Fatalf("ParseString error %q, Parse error %q", errString, errReader)
			}
		}
	}
}

// ScanString hands each op over in order, returns the header alone, and
// fails as ParseString does.
func TestScanString(t *testing.T) {
	text := FormatString(sample()) + "fstat fh=1\n"
	var ops []Op
	h, err := ScanString(text, func(op Op) { ops = append(ops, op) })
	want, _ := ParseString(text)
	if err != nil || h.Name != want.Name || h.Label != want.Label || h.Ops != nil || len(ops) != len(want.Ops) {
		t.Fatalf("ScanString = %+v, %d ops, %v; want %+v", h, len(ops), err, want)
	}
	for i := range ops {
		if ops[i] != want.Ops[i] {
			t.Fatalf("op %d = %+v, want %+v", i, ops[i], want.Ops[i])
		}
	}
	bad := "read fh=1\nread fh=1 bytes=-5\n"
	_, err = ScanString(bad, func(Op) {})
	if _, wantErr := ParseString(bad); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("ScanString error %v, ParseString error %v", err, wantErr)
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := ParseString("read fh=1 bytes=4\nbogus line here\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Fatalf("line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Fatalf("message %q lacks line info", pe.Error())
	}
}

func TestOpStringOmitsZeroFields(t *testing.T) {
	s := Op{Name: "close", Handle: 2}.String()
	if strings.Contains(s, "bytes") || strings.Contains(s, "addr") || strings.Contains(s, "path") {
		t.Fatalf("zero fields leaked into %q", s)
	}
}

func TestParseStraceBasic(t *testing.T) {
	in := `
open("data.bin", O_RDONLY) = 3
read(3, "...", 4096) = 4096
lseek(3, 8192, SEEK_SET) = 8192
write(3, "...", 512) = 512
close(3) = 0
`
	tr, err := ParseStrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Name: "open", Handle: 3, Path: "data.bin"},
		{Name: "read", Handle: 3, Bytes: 4096},
		{Name: "lseek", Handle: 3},
		{Name: "write", Handle: 3, Bytes: 512},
		{Name: "close", Handle: 3},
	}
	if len(tr.Ops) != len(want) {
		t.Fatalf("got %d ops %v, want %d", len(tr.Ops), tr.Ops, len(want))
	}
	for i := range want {
		if tr.Ops[i] != want[i] {
			t.Fatalf("op %d: got %+v, want %+v", i, tr.Ops[i], want[i])
		}
	}
}

func TestParseStraceSkipsNoise(t *testing.T) {
	// The unfinished read is completed by its resumption two lines later
	// (both halves under the same PID); the signal, exit, failed open, and
	// the resumption with no stashed half are dropped.
	in := `
--- SIGCHLD {si_signo=SIGCHLD} ---
+++ exited with 0 +++
open("x", O_RDONLY) = -1 ENOENT (No such file)
read(3 <unfinished ...>
1234  write(5, "abc", 3) = 3
<... read resumed> , "...", 8192) = 8192
<... pread resumed> ...) = 64
`
	tr, err := ParseStrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Name: "write", Handle: 5, Bytes: 3},
		{Name: "read", Handle: 3, Bytes: 8192},
	}
	if len(tr.Ops) != len(want) {
		t.Fatalf("got %d ops %v, want %v", len(tr.Ops), tr.Ops, want)
	}
	for i := range want {
		if tr.Ops[i] != want[i] {
			t.Fatalf("op %d: got %+v, want %+v", i, tr.Ops[i], want[i])
		}
	}
}

// TestParseStraceDecorations pins the column stripping: every -t/-tt/-ttt
// timestamp shape, both PID column forms, combinations of the two, and
// the -T duration suffix must all leave the call parsable. Before the
// streaming rework each of these lines was silently dropped.
func TestParseStraceDecorations(t *testing.T) {
	cases := []struct {
		name string
		line string
		want Op
	}{
		{"plain", `read(3, "...", 4096) = 4096`, Op{Name: "read", Handle: 3, Bytes: 4096}},
		{"t", `12:34:56 read(3, "...", 4096) = 4096`, Op{Name: "read", Handle: 3, Bytes: 4096}},
		{"tt", `12:34:56.789012 read(3, "...", 4096) = 4096`, Op{Name: "read", Handle: 3, Bytes: 4096}},
		{"ttt", `1628773289.123456 read(3, "...", 4096) = 4096`, Op{Name: "read", Handle: 3, Bytes: 4096}},
		{"pid", `1234  write(5, "abc", 3) = 3`, Op{Name: "write", Handle: 5, Bytes: 3}},
		{"pid-bracket", `[pid 1234] write(5, "abc", 3) = 3`, Op{Name: "write", Handle: 5, Bytes: 3}},
		{"pid-then-tt", `1234 12:34:56.789012 lseek(3, 8192, SEEK_SET) = 8192`, Op{Name: "lseek", Handle: 3}},
		{"bracket-then-ttt", `[pid 7] 1628773289.000001 close(3) = 0`, Op{Name: "close", Handle: 3}},
		{"duration", `write(3, "x", 512) = 512 <0.000042>`, Op{Name: "write", Handle: 3, Bytes: 512}},
		{"tt-and-duration", `12:34:56.789012 pread64(4, "x", 64, 0) = 64 <0.000007>`, Op{Name: "pread64", Handle: 4, Bytes: 64}},
		{"t-open", `12:34:56 openat(AT_FDCWD, "f.dat", O_WRONLY) = 4 <0.000100>`, Op{Name: "open", Handle: 4, Path: "f.dat"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ParseStrace(strings.NewReader(tc.line))
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Ops) != 1 || tr.Ops[0] != tc.want {
				t.Fatalf("line %q: got %v, want %+v", tc.line, tr.Ops, tc.want)
			}
		})
	}
}

// TestParseStraceUnfinishedResumed pins the per-PID pairing: interleaved
// split calls from two PIDs complete in resumption order, decorations and
// all, and an unfinished call with no resumption is dropped at EOF.
func TestParseStraceUnfinishedResumed(t *testing.T) {
	in := `
[pid 100] 12:00:00.000001 read(3, " <unfinished ...>
[pid 200] write(7, "abc" <unfinished ...>
[pid 100] 12:00:00.000500 <... read resumed> ", 4096) = 4096 <0.000499>
[pid 200] <... write resumed> , 3) = 3
[pid 300] open("never.dat", O_RDONLY <unfinished ...>
`
	tr, err := ParseStrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Name: "read", Handle: 3, Bytes: 4096},
		{Name: "write", Handle: 7, Bytes: 3},
	}
	if len(tr.Ops) != len(want) {
		t.Fatalf("got %d ops %v, want %v", len(tr.Ops), tr.Ops, want)
	}
	for i := range want {
		if tr.Ops[i] != want[i] {
			t.Fatalf("op %d: got %+v, want %+v", i, tr.Ops[i], want[i])
		}
	}

	// Streaming form: the LineParser exposes the stash so callers can see
	// an in-flight split call.
	p := NewLineParser()
	if _, ok, _ := p.Line(`1234 read(3, " <unfinished ...>`); ok {
		t.Fatal("unfinished half produced an op")
	}
	if p.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", p.Pending())
	}
	op, ok, err := p.Line(`1234 <... read resumed> ", 65536) = 65536`)
	if err != nil || !ok || op != (Op{Name: "read", Handle: 3, Bytes: 65536}) {
		t.Fatalf("resumed: op %+v ok %v err %v", op, ok, err)
	}
	if p.Pending() != 0 {
		t.Fatalf("pending after resume = %d, want 0", p.Pending())
	}
}

// TestParseStraceTimestampedCapture is the probe from the bug report: a
// four-line capture with one timestamped read must parse all four ops
// (the timestamped line used to fail the identifier check and vanish).
func TestParseStraceTimestampedCapture(t *testing.T) {
	in := `open("d", O_RDONLY) = 3
12:34:56.789012 read(3, "...", 4096) = 4096
write(3, "x", 1) = 1
close(3) = 0
`
	tr, err := ParseStrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) != 4 {
		t.Fatalf("got %d ops %v, want 4", len(tr.Ops), tr.Ops)
	}
	if tr.Ops[1] != (Op{Name: "read", Handle: 3, Bytes: 4096}) {
		t.Fatalf("timestamped read parsed as %+v", tr.Ops[1])
	}
}

func TestParseStraceTruncatedReadUsesCountArg(t *testing.T) {
	in := `read(7, "...", 65536) = -1`
	tr, err := ParseStrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) != 1 || tr.Ops[0].Bytes != 65536 {
		t.Fatalf("got %v", tr.Ops)
	}
}

func TestParseStraceOpenat(t *testing.T) {
	in := `openat(AT_FDCWD, "f.dat", O_WRONLY|O_CREAT, 0644) = 4`
	tr, err := ParseStrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) != 1 || tr.Ops[0].Name != "open" || tr.Ops[0].Handle != 4 || tr.Ops[0].Path != "f.dat" {
		t.Fatalf("got %+v", tr.Ops)
	}
}
