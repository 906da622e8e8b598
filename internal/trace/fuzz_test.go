package trace

import (
	"strings"
	"testing"

	"iokast/internal/xrand"
)

// FuzzParse checks that the canonical parser never panics and that
// anything it accepts survives a format/parse round trip.
func FuzzParse(f *testing.F) {
	f.Add("open fh=1\nwrite fh=1 bytes=8\nclose fh=1\n")
	f.Add("% name=\"x\" label=\"A\"\nread fh=3 bytes=10 addr=0xff\n")
	f.Add("# comment only\n")
	f.Add("read fh=1 bytes=99999999999\n")
	f.Add("open fh=0 path=\"with space\"\n")
	f.Add("write fh=1\tbytes=2")
	f.Add("open fh=1 path=\"a\"\r\nread fh=1 bytes=4\r\nclose fh=1\r\n")
	f.Add("open fh=1 path=\"dir\\\\\"\n")
	f.Add("open fh=1 path=\"dir\\\"\n")
	f.Add("read\tfh=1\tbytes=4\t\n")
	f.Add("% name=\"run 1\" label=\"big job\"\nread fh=1\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseString(input)
		if err != nil {
			return
		}
		text := FormatString(tr)
		again, err := ParseString(text)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v\nformatted: %q", err, text)
		}
		if again.Name != tr.Name || again.Label != tr.Label {
			t.Fatalf("round trip changed header %q/%q -> %q/%q", tr.Name, tr.Label, again.Name, again.Label)
		}
		if len(again.Ops) != len(tr.Ops) {
			t.Fatalf("round trip changed op count %d -> %d", len(tr.Ops), len(again.Ops))
		}
		for i := range tr.Ops {
			if again.Ops[i] != tr.Ops[i] {
				t.Fatalf("round trip changed op %d: %+v -> %+v", i, tr.Ops[i], again.Ops[i])
			}
		}
	})
}

// FuzzFormatParse checks that Parse(Format(t)) returns t exactly when the
// name, label and paths are arbitrary strings. Op names come from a fixed
// set: Format writes them bare, so a name holding a space cannot
// round-trip, and the format does not promise it.
func FuzzFormatParse(f *testing.F) {
	f.Add("run 1", "A", "out.dat", uint64(1))
	f.Add("", "big job", "with space", uint64(2))
	f.Add("tab\there", "quote\"d", "back\\slash\\", uint64(3))
	f.Add("x=y z", "% label=B", "\x00\xff", uint64(4))
	names := []string{"open", "read", "write", "lseek", "fsync", "close", "fileno"}
	f.Fuzz(func(t *testing.T, name, label, path string, seed uint64) {
		r := xrand.New(seed)
		tr := &Trace{Name: name, Label: label}
		for i := r.Intn(12); i >= 0; i-- {
			op := Op{Name: names[r.Intn(len(names))], Handle: r.Intn(5) - 1}
			switch op.Name {
			case "open":
				op.Path = path
			case "read", "write":
				op.Bytes = int64(r.Uint64() >> 1)
				op.Addr = r.Uint64() >> uint(r.Intn(64))
			}
			tr.Append(op)
		}
		text := FormatString(tr)
		got, err := ParseString(text)
		if err != nil {
			t.Fatalf("Parse(Format(t)) failed: %v\nformatted: %q", err, text)
		}
		if got.Name != tr.Name || got.Label != tr.Label || len(got.Ops) != len(tr.Ops) {
			t.Fatalf("round trip changed %q/%q/%d ops -> %q/%q/%d ops", tr.Name, tr.Label, len(tr.Ops), got.Name, got.Label, len(got.Ops))
		}
		for i := range tr.Ops {
			if got.Ops[i] != tr.Ops[i] {
				t.Fatalf("round trip changed op %d: %+v -> %+v", i, tr.Ops[i], got.Ops[i])
			}
		}
	})
}

// FuzzParseStrace checks the strace adapter never panics and always
// produces traces the rest of the pipeline can digest.
func FuzzParseStrace(f *testing.F) {
	f.Add(`open("x", O_RDONLY) = 3`)
	f.Add(`read(3, "...", 4096) = 4096`)
	f.Add(`1234 write(5, "abc", 3) = 3`)
	f.Add(`--- SIGCHLD ---`)
	f.Add(`close(3) = 0`)
	f.Add(`weird((nested(parens)), "quo\"te") = -1`)
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseStrace(strings.NewReader(input))
		if err != nil || tr == nil {
			return
		}
		for _, op := range tr.Ops {
			if op.Name == "" {
				t.Fatalf("strace produced unnamed op from %q", input)
			}
			if op.Bytes < 0 {
				t.Fatalf("strace produced negative byte count from %q", input)
			}
		}
	})
}
