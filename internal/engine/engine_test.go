package engine

import (
	"math"
	"testing"

	"iokast/internal/core"
	"iokast/internal/iogen"
	"iokast/internal/kernel"
	"iokast/internal/token"
	"iokast/internal/xrand"
)

// corpus builds nTraces converted weighted strings from the paper's
// synthetic generator, deterministically.
func corpus(t testing.TB, nTraces int, seed uint64) []token.String {
	t.Helper()
	ds, err := iogen.Build(iogen.PaperOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	if nTraces > len(ds.Traces) {
		t.Fatalf("dataset has %d traces, want %d", len(ds.Traces), nTraces)
	}
	return core.ConvertAll(ds.Traces[:nTraces], core.Options{})
}

// TestEngineMatchesBatchGramKast is the tentpole equivalence proof for the
// Kast path: after N sequential Adds, the engine's snapshot must equal a
// from-scratch kernel.Gram over the same strings. Both paths sum integer-
// valued products in float64, which is exact, so equality is bitwise.
func TestEngineMatchesBatchGramKast(t *testing.T) {
	xs := corpus(t, 20, 7)
	for _, cut := range []int{0, 2, 4} {
		k := &core.Kast{CutWeight: cut}
		e := New(Options{Kernel: k})
		for i, x := range xs {
			if id := e.Add(x); id != i {
				t.Fatalf("Add #%d returned id %d", i, id)
			}
		}
		got, ids := e.Gram()
		want := kernel.Gram(k, xs)
		if len(ids) != len(xs) {
			t.Fatalf("cut=%d: got %d ids, want %d", cut, len(ids), len(xs))
		}
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("cut=%d: incremental Gram differs from batch by %g", cut, d)
		}
	}
}

// TestEngineMatchesBatchGramFeaturer checks the cached-feature-map path
// (baseline kernels) is bit-identical to kernel.Gram's featurer fast path.
func TestEngineMatchesBatchGramFeaturer(t *testing.T) {
	xs := corpus(t, 20, 11)
	kernels := []kernel.Kernel{
		&kernel.Spectrum{K: 3},
		&kernel.Blended{P: 4, CutWeight: 2},
	}
	for _, k := range kernels {
		e := New(Options{Kernel: k})
		for _, x := range xs {
			e.Add(x)
		}
		got, _ := e.Gram()
		want := kernel.Gram(k, xs)
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("%s: incremental Gram differs from batch by %g", k.Name(), d)
		}
	}
}

// TestEngineRemove checks that removal excises exactly the removed row and
// column: the snapshot over the survivors must equal a batch Gram over the
// surviving strings, and ids must stay stable.
func TestEngineRemove(t *testing.T) {
	xs := corpus(t, 12, 3)
	k := &core.Kast{CutWeight: 2}
	e := New(Options{Kernel: k})
	for _, x := range xs {
		e.Add(x)
	}
	if err := e.Remove(3); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(7); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(3); err == nil {
		t.Fatal("double Remove(3) succeeded")
	}
	if err := e.Remove(99); err == nil {
		t.Fatal("Remove(99) succeeded on 12-entry corpus")
	}
	if e.Len() != 10 {
		t.Fatalf("Len = %d after 12 adds and 2 removes", e.Len())
	}

	var kept []token.String
	var wantIDs []int
	for i, x := range xs {
		if i != 3 && i != 7 {
			kept = append(kept, x)
			wantIDs = append(wantIDs, i)
		}
	}
	got, ids := e.Gram()
	for i, id := range ids {
		if id != wantIDs[i] {
			t.Fatalf("ids = %v, want %v", ids, wantIDs)
		}
	}
	want := kernel.Gram(k, kept)
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Errorf("post-remove Gram differs from batch over survivors by %g", d)
	}

	// Ids are never reused: the next Add continues the sequence.
	if id := e.Add(xs[3]); id != len(xs) {
		t.Fatalf("Add after Remove returned id %d, want %d", id, len(xs))
	}
}

// TestEngineSimilarRanksIdenticalFirst: an exact duplicate of the query
// string must rank first with cosine similarity 1.
func TestEngineSimilarRanksIdenticalFirst(t *testing.T) {
	// Distinct synthetic strings (the iogen corpus contains exact
	// duplicates, which would tie with the planted one at similarity 1).
	mk := func(lits ...string) token.String {
		s := make(token.String, len(lits))
		for i, l := range lits {
			s[i] = token.Token{Literal: l, Weight: 3 + i}
		}
		return s
	}
	xs := []token.String{
		mk("a", "b", "c", "d"),
		mk("a", "b", "x", "y"),
		mk("p", "q", "r", "s"),
		mk("c", "d", "a", "b"),
	}
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	for _, x := range xs {
		e.Add(x)
	}
	dup := e.Add(xs[0]) // duplicate of id 0

	ns, err := e.Similar(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 3 {
		t.Fatalf("got %d neighbours, want 3", len(ns))
	}
	if ns[0].ID != dup {
		t.Fatalf("top neighbour = %+v, want id %d", ns[0], dup)
	}
	if math.Abs(ns[0].Similarity-1) > 1e-12 {
		t.Fatalf("duplicate similarity = %g, want 1", ns[0].Similarity)
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Similarity > ns[i-1].Similarity {
			t.Fatalf("neighbours not sorted: %+v", ns)
		}
	}

	if _, err := e.Similar(999, 3); err == nil {
		t.Fatal("Similar on unknown id succeeded")
	}
}

// TestEngineGramAtReusesPreparedViews: recomputing at another cut weight
// must match a batch Gram with that cut, without any re-preparation.
func TestEngineGramAt(t *testing.T) {
	xs := corpus(t, 15, 9)
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	for _, x := range xs {
		e.Add(x)
	}
	for _, cut := range []int{1, 3, 6} {
		got, ids, err := e.GramAt(cut)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(xs) {
			t.Fatalf("GramAt(%d): %d ids", cut, len(ids))
		}
		want := kernel.Gram(&core.Kast{CutWeight: cut}, xs)
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("GramAt(%d) differs from batch by %g", cut, d)
		}
	}
	if _, _, err := New(Options{Kernel: &kernel.Spectrum{K: 2}}).GramAt(3); err == nil {
		t.Fatal("GramAt on a non-Kast engine succeeded")
	}
}

// TestEngineNonFeaturerKernel covers the generic fallback path (a kernel
// that is neither Kast nor a featurer).
func TestEngineNonFeaturerKernel(t *testing.T) {
	xs := corpus(t, 8, 13)
	k := kernel.Normalized{K: &core.Kast{CutWeight: 2}}
	e := New(Options{Kernel: k})
	for _, x := range xs {
		e.Add(x)
	}
	got, _ := e.Gram()
	want := kernel.Gram(k, xs)
	if d := got.MaxAbsDiff(want); d > 1e-15 {
		t.Errorf("generic path differs from batch by %g", d)
	}
}

// TestEngineEmpty exercises the zero-corpus edge cases.
func TestEngineEmpty(t *testing.T) {
	e := New(Options{})
	g, ids := e.Gram()
	if g.Rows != 0 || g.Cols != 0 || len(ids) != 0 {
		t.Fatalf("empty engine Gram = %dx%d, %d ids", g.Rows, g.Cols, len(ids))
	}
	if _, _, _, err := e.NormalizedGram(); err != nil {
		t.Fatalf("empty NormalizedGram: %v", err)
	}
	if e.Len() != 0 {
		t.Fatalf("empty Len = %d", e.Len())
	}
}

// TestEngineDefaultKernel: a nil kernel means the paper default.
func TestEngineDefaultKernel(t *testing.T) {
	e := New(Options{})
	if name := e.Kernel().Name(); name != (&core.Kast{CutWeight: 2}).Name() {
		t.Fatalf("default kernel = %s", name)
	}
}

// TestEngineAddDoesNotAliasCaller: mutating the caller's string after Add
// must not corrupt the corpus.
func TestEngineAddDoesNotAliasCaller(t *testing.T) {
	x := token.String{{Literal: "a", Weight: 5}, {Literal: "b", Weight: 5}}
	for _, k := range []kernel.Kernel{
		&core.Kast{CutWeight: 2},
		&kernel.Spectrum{K: 1},
		kernel.Normalized{K: &core.Kast{CutWeight: 2}},
	} {
		e := New(Options{Kernel: k})
		e.Add(x)
		x[0].Literal = "mutated"
		xs, _ := e.Strings()
		if xs[0][0].Literal != "a" {
			t.Fatalf("%s: corpus aliased caller slice: %v", k.Name(), xs[0])
		}
		x[0].Literal = "a"
	}
}

// randWeighted builds a random weighted string for benchmark filler.
func randWeighted(r *xrand.Rand, n int) token.String {
	s := make(token.String, n)
	for i := range s {
		s[i] = token.Token{
			Literal: string(rune('a' + r.Intn(6))),
			Weight:  1 + r.Intn(9),
		}
	}
	return s
}

// topNeighbors selects with a heap, but must return exactly the first k
// of SortNeighbors' order, ties on similarity included.
func TestTopNeighborsMatchesSort(t *testing.T) {
	r := xrand.New(5)
	for trial := 0; trial < 200; trial++ {
		n := r.IntRange(0, 40)
		list := make([]Neighbor, n)
		for i, id := range r.Perm(3 * n)[:n] {
			list[i] = Neighbor{ID: id, Similarity: float64(r.Intn(5)) / 4}
		}
		want := append([]Neighbor(nil), list...)
		SortNeighbors(want)
		for _, k := range []int{-1, 0, 1, n - 1, n, n + 1} {
			got := topNeighbors(append([]Neighbor(nil), list...), k)
			w := want
			if k >= 0 && k < n {
				w = want[:k]
			}
			if len(got) != len(w) {
				t.Fatalf("trial %d, k=%d: %d neighbours, want %d", trial, k, len(got), len(w))
			}
			for i := range w {
				if got[i] != w[i] {
					t.Fatalf("trial %d, k=%d: position %d is %+v, want %+v", trial, k, i, got[i], w[i])
				}
			}
		}
	}
}
