package sketch_test

// The recall harness: property tests over generated corpora asserting that
// the sketch index is a faithful approximation of exact similarity — high
// recall without reranking, and exact top-k equality once the exact rerank
// covers the corpus. These live in an external test package because they
// exercise the sketch through internal/engine, which itself imports
// internal/sketch.

import (
	"math"
	"sort"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/iogen"
	"iokast/internal/token"
)

// recallCorpus builds a moderate labelled corpus: 13 base traces across
// the paper's four categories, each with mutated copies — large enough
// that top-10 neighbourhoods are meaningful, small enough that every
// cut weight's full Gram stays cheap.
func recallCorpus(t testing.TB, seed uint64) []token.String {
	t.Helper()
	ds, err := iogen.Build(iogen.Options{
		Seed: seed,
		Bases: map[iogen.Category]int{
			iogen.CatFlash:        4,
			iogen.CatRandomPOSIX:  3,
			iogen.CatNormal:       3,
			iogen.CatRandomAccess: 3,
		},
		CopiesPerBase:    3,
		MutationsPerCopy: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return core.ConvertAll(ds.Traces, core.Options{})
}

// kernelConfigs spans the cut weights the engine serves.
func kernelConfigs() []*core.Kast {
	return []*core.Kast{{CutWeight: 2}, {CutWeight: 4}}
}

func buildEngine(t testing.TB, k *core.Kast, xs []token.String) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Options{Kernel: k})
	if _, err := e.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	return e
}

// recallAt10 runs every corpus entry as a query against exact Similar and
// the given approximate query, returning average top-10 set recall.
func recallAt10(t *testing.T, e *engine.Engine, n int, approx func(id int) []engine.Neighbor) float64 {
	t.Helper()
	const k = 10
	var recallSum float64
	for id := 0; id < n; id++ {
		exact, err := e.Similar(id, k)
		if err != nil {
			t.Fatal(err)
		}
		exactIDs := make(map[int]bool, len(exact))
		for _, nb := range exact {
			exactIDs[nb.ID] = true
		}
		hits := 0
		for _, nb := range approx(id) {
			if exactIDs[nb.ID] {
				hits++
			}
		}
		recallSum += float64(hits) / float64(len(exact))
	}
	return recallSum / float64(n)
}

// TestRecallAt10 asserts recall@10 >= 0.9 for the approximate query path
// at its default settings (sketch shortlist + exact rerank of the default
// over-fetch) against exact Similar, averaged over every query id, for
// every cut weight at the default sketch width.
func TestRecallAt10(t *testing.T) {
	xs := recallCorpus(t, 1)
	for _, kern := range kernelConfigs() {
		e := buildEngine(t, kern, xs)
		recall := recallAt10(t, e, len(xs), func(id int) []engine.Neighbor {
			ns, err := e.SimilarApprox(id, 10, -1)
			if err != nil {
				t.Fatal(err)
			}
			return ns
		})
		t.Logf("%s: recall@10 = %.3f over %d queries", kern.Name(), recall, len(xs))
		if recall < 0.9 {
			t.Errorf("%s: recall@10 = %.3f, want >= 0.9", kern.Name(), recall)
		}
	}
}

// TestShortlistCoverage asserts the property the rerank depends on: the
// raw sketch ranking (rerank = 0), over-fetched to the default shortlist
// size, covers >= 0.9 of the exact top-10 for every config. This is the
// bound that makes the default-rerank path exact in practice.
func TestShortlistCoverage(t *testing.T) {
	xs := recallCorpus(t, 1)
	const shortlist = 4 * 10 // the default over-fetch for k=10
	for _, kern := range kernelConfigs() {
		e := buildEngine(t, kern, xs)
		cov := recallAt10(t, e, len(xs), func(id int) []engine.Neighbor {
			ns, err := e.SimilarApprox(id, shortlist, 0)
			if err != nil {
				t.Fatal(err)
			}
			return ns
		})
		t.Logf("%s: shortlist-%d coverage of exact top-10 = %.3f", kern.Name(), shortlist, cov)
		if cov < 0.9 {
			t.Errorf("%s: shortlist coverage = %.3f, want >= 0.9", kern.Name(), cov)
		}
	}
}

// TestRerankMatchesExact asserts the acceptance property: with the rerank
// covering the corpus, SimilarApprox returns exactly Similar's top-k —
// same ids, same similarity bits, same order — for every query and config.
func TestRerankMatchesExact(t *testing.T) {
	xs := recallCorpus(t, 2)
	for _, kern := range kernelConfigs() {
		e := buildEngine(t, kern, xs)
		for id := range xs {
			for _, k := range []int{1, 5, 10} {
				exact, err := e.Similar(id, k)
				if err != nil {
					t.Fatal(err)
				}
				approx, err := e.SimilarApprox(id, k, len(xs))
				if err != nil {
					t.Fatal(err)
				}
				if len(exact) != len(approx) {
					t.Fatalf("%s id=%d k=%d: %d vs %d neighbors", kern.Name(), id, k, len(exact), len(approx))
				}
				for i := range exact {
					if exact[i] != approx[i] {
						t.Fatalf("%s id=%d k=%d: neighbor %d exact %+v != approx %+v",
							kern.Name(), id, k, i, exact[i], approx[i])
					}
				}
			}
		}
	}
}

// TestSimilarTraceMatchesBruteForce asserts query-by-trace correctness:
// for fresh traces never ingested, SimilarTrace with full rerank equals a
// brute-force exact scan (one kernel evaluation per corpus entry,
// cosine-normalised), and the sketch-shortlisted variant finds the same
// top-1 — a fresh mutation of a corpus trace has an unambiguous nearest
// neighbour.
func TestSimilarTraceMatchesBruteForce(t *testing.T) {
	xs := recallCorpus(t, 3)
	queries := recallCorpus(t, 4)[:8]
	const k = 5
	for _, kern := range kernelConfigs() {
		e := buildEngine(t, kern, xs)
		for qi, q := range queries {
			got, err := e.SimilarTrace(q, k, len(xs))
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForceNeighbors(kern, xs, q, k)
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d vs %d neighbors", kern.Name(), qi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s query %d: neighbor %d got %+v, want %+v",
						kern.Name(), qi, i, got[i], want[i])
				}
			}
			shortlisted, err := e.SimilarTrace(q, k, -1)
			if err != nil {
				t.Fatal(err)
			}
			if len(shortlisted) == 0 || shortlisted[0] != want[0] {
				t.Errorf("%s query %d: shortlisted top-1 %+v, want %+v",
					kern.Name(), qi, shortlisted, want[0])
			}
		}
	}
}

// bruteForceNeighbors is the exact reference for query-by-trace: score
// every corpus string with the raw kernel, cosine-normalise, sort by
// decreasing similarity with ties by ascending id.
func bruteForceNeighbors(kern *core.Kast, xs []token.String, q token.String, k int) []engine.Neighbor {
	self := kern.Compare(q, q)
	out := make([]engine.Neighbor, len(xs))
	for id, x := range xs {
		v := kern.Compare(q, x)
		if d := self * kern.Compare(x, x); d > 0 {
			v /= math.Sqrt(d)
		} else {
			v = 0
		}
		out[id] = engine.Neighbor{ID: id, Similarity: v}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Similarity != out[b].Similarity {
			return out[a].Similarity > out[b].Similarity
		}
		return out[a].ID < out[b].ID
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
