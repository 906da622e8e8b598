package classify

import (
	"strings"
	"testing"

	"iokast/internal/core"
	"iokast/internal/iogen"
	"iokast/internal/kernel"
	"iokast/internal/token"
	"iokast/internal/xrand"
)

func ws(pairs ...any) token.String {
	var s token.String
	for i := 0; i < len(pairs); i += 2 {
		s = append(s, token.Token{Literal: pairs[i].(string), Weight: pairs[i+1].(int)})
	}
	return s
}

func TestNewValidation(t *testing.T) {
	k := &core.Kast{CutWeight: 2}
	if _, err := New(k, nil, nil, 1); err == nil {
		t.Fatal("empty reference set accepted")
	}
	if _, err := New(k, []token.String{ws("a", 2)}, []string{"x", "y"}, 1); err == nil {
		t.Fatal("label mismatch accepted")
	}
	c, err := New(k, []token.String{ws("a", 2)}, []string{"x"}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if c.k != 1 {
		t.Fatalf("k not clamped: %d", c.k)
	}
	// The reference engine runs Kast only: any other kernel is refused
	// with an error that names it, not a panic.
	for _, other := range []kernel.Kernel{&kernel.Blended{P: 5}, kernel.Normalized{K: k}} {
		if _, err := New(other, []token.String{ws("a", 2)}, []string{"x"}, 1); err == nil || !strings.Contains(err.Error(), other.Name()) {
			t.Errorf("New(%s) = %v, want an error naming the kernel", other.Name(), err)
		}
	}
}

func TestClassifySimple(t *testing.T) {
	k := &core.Kast{CutWeight: 2}
	refs := []token.String{
		ws("w", 10, "w2", 5),
		ws("w", 12, "w2", 4),
		ws("s", 9, "r", 9),
		ws("s", 11, "r", 7),
	}
	labels := []string{"writer", "writer", "seeker", "seeker"}
	c, err := New(k, refs, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, matches, err := c.Classify(ws("w", 11, "w2", 6))
	if err != nil {
		t.Fatal(err)
	}
	if got != "writer" {
		t.Fatalf("classified as %q", got)
	}
	if len(matches) != 4 || matches[0].Label != "writer" {
		t.Fatalf("matches %v", matches)
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].Similarity > matches[i-1].Similarity {
			t.Fatal("matches not sorted")
		}
	}
	got, _, err = c.Classify(ws("s", 10, "r", 8))
	if err != nil || got != "seeker" {
		t.Fatalf("second query: %q, %v", got, err)
	}
}

func TestClassifyZeroSelfSim(t *testing.T) {
	k := &core.Kast{CutWeight: 100}
	c, err := New(k, []token.String{ws("a", 200)}, []string{"x"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Classify(ws("a", 1)); err == nil {
		t.Fatal("zero self-similarity input accepted")
	}
}

func TestKMajorityVoting(t *testing.T) {
	k := &core.Kast{CutWeight: 2}
	// Two "b" references nearly identical to the query, one "a" exactly
	// identical: with k=3 the majority label wins over the single best.
	refs := []token.String{
		ws("q", 10),
		ws("q", 9, "z", 2),
		ws("q", 8, "z", 3),
	}
	labels := []string{"a", "b", "b"}
	c, err := New(k, refs, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Classify(ws("q", 10))
	if err != nil {
		t.Fatal(err)
	}
	if got != "b" {
		t.Fatalf("majority vote gave %q", got)
	}
}

// End to end: train on a subset of the paper dataset, classify the rest.
func TestDatasetClassification(t *testing.T) {
	ds, err := iogen.Build(iogen.Options{
		Seed: 5,
		Bases: map[iogen.Category]int{
			iogen.CatFlash: 2, iogen.CatRandomPOSIX: 2, iogen.CatNormal: 2, iogen.CatRandomAccess: 2,
		},
		CopiesPerBase:    2,
		MutationsPerCopy: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := core.ConvertAll(ds.Traces, core.Options{})
	var refs, queries []token.String
	var refLabels, queryLabels []string
	r := xrand.New(3)
	for i := range xs {
		if r.Bool(0.5) || len(refs) == 0 {
			refs = append(refs, xs[i])
			refLabels = append(refLabels, ds.Labels[i])
		} else {
			queries = append(queries, xs[i])
			queryLabels = append(queryLabels, ds.Labels[i])
		}
	}
	c, err := New(&core.Kast{CutWeight: 2}, refs, refLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, q := range queries {
		got, _, err := c.Classify(q)
		if err != nil {
			t.Fatal(err)
		}
		// C and D are interchangeable by design (the paper's clusters
		// merge them), so either counts as correct for the other.
		want := queryLabels[i]
		if got == want || (got == "C" && want == "D") || (got == "D" && want == "C") {
			correct++
		}
	}
	acc := float64(correct) / float64(len(queries))
	if acc < 0.9 {
		t.Fatalf("dataset classification accuracy %.2f (%d/%d)", acc, correct, len(queries))
	}
}

func TestLeaveOneOutAccuracy(t *testing.T) {
	k := &core.Kast{CutWeight: 2}
	refs := []token.String{
		ws("w", 10, "w2", 5), ws("w", 12, "w2", 4),
		ws("s", 9, "r", 9), ws("s", 11, "r", 7),
	}
	labels := []string{"w", "w", "s", "s"}
	c, err := New(k, refs, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := c.Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("LOO accuracy %v", acc)
	}
	// Too few references.
	c1, _ := New(k, refs[:1], labels[:1], 1)
	if _, err := c1.Accuracy(); err == nil {
		t.Fatal("singleton accuracy accepted")
	}
}
