package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iokast/internal/iogen"
	"iokast/internal/trace"
	"iokast/internal/xrand"
)

var updateCorpusGolden = flag.Bool("update", false, "rewrite testdata/corpus.golden from the current code")

// TestConvertCorpusGolden pins the front half of §3.1 over generated
// corpora: for several traces of every iogen category (the load categories
// are a subset of the paper's, which are a subset of the extended ones),
// plus mutated copies and the load stream's own bodies, the golden holds a
// digest of what ParseString reads back from FormatString and both string
// variants Convert produces. A change to parsing, tree building,
// compression or token text that alters any of them fails here.
func TestConvertCorpusGolden(t *testing.T) {
	got := corpusGoldenText(t)
	path := filepath.Join("testdata", "corpus.golden")
	if *updateCorpusGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("corpus.golden line %d drifted:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

func corpusGoldenText(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	emit := func(name, text string) {
		tr, err := trace.ParseString(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s ops=%d text=%d parsed=%s\n", name, len(tr.Ops), len(text), opsDigest(tr))
		fmt.Fprintf(&b, "  bytes   %s\n", Convert(tr, Options{}).Format())
		fmt.Fprintf(&b, "  nobytes %s\n", Convert(tr, Options{IgnoreBytes: true}).Format())
	}
	r := xrand.New(2117)
	for _, cat := range iogen.ExtendedCategories {
		for i := 0; i < 3; i++ {
			tr, err := iogen.GenerateExtended(cat, r)
			if err != nil {
				t.Fatal(err)
			}
			tr.Name = fmt.Sprintf("%s%d", cat, i)
			emit(tr.Name, trace.FormatString(tr))
			m := iogen.Mutate(tr, r, 6)
			m.Name += "m"
			emit(m.Name, trace.FormatString(m))
		}
	}
	g := iogen.NewBodyGen(2117, nil)
	for i := 0; i < 6; i++ {
		body, cat := g.Next()
		emit(fmt.Sprintf("load%d-%s", i, cat), body)
	}
	return b.String()
}

// opsDigest hashes every field of every parsed op, so the golden pins the
// parser's output without holding whole traces.
func opsDigest(tr *trace.Trace) string {
	h := sha256.New()
	fmt.Fprintf(h, "%q %q\n", tr.Name, tr.Label)
	for _, op := range tr.Ops {
		fmt.Fprintf(h, "%q %d %d %d %q\n", op.Name, op.Handle, op.Bytes, op.Addr, op.Path)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
