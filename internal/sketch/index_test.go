package sketch

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"iokast/internal/core"
	"iokast/internal/iogen"
	"iokast/internal/xrand"
)

// referenceSearch is the brute-force definition Index.Search must meet:
// score every live vector with Dot, order by (score desc, id asc) and keep
// the first k, all of them for k < 0.
func referenceSearch(vecs map[int][]float64, q []float64, k, exclude int) []Candidate {
	var out []Candidate
	for id, vec := range vecs {
		if id != exclude {
			out = append(out, Candidate{ID: id, Score: Dot(q, vec)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

func candidatesEqual(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestIndexSearchMatchesReference: the scan over the query's nonzero
// coordinates with a bounded heap returns exactly the brute-force answer,
// ids and score bits, for every k a request can carry (negative, zero,
// around the live count, and far beyond it). The corpus holds ids spread
// over a wide range with empty slots between them, as shard engines hold
// corpus-wide ids, tombstones, and groups of duplicate vectors, so every
// cut falls on a tie that only the id can break. Sparse sketches of short
// strings and an all-zero query exercise the skipped coordinates.
func TestIndexSearchMatchesReference(t *testing.T) {
	r := xrand.New(17)
	sk := New(Options{Dim: 64, Seed: 3})
	ix := NewIndex(sk.Dim())
	live := map[int][]float64{}
	var ids []int
	for g := 0; g < 20; g++ {
		vec := sk.Sketch(randString(r, 1+r.Intn(6)))
		for c := 0; c < 3; c++ {
			id := r.Intn(1 << 16)
			if _, dup := live[id]; dup {
				continue
			}
			if err := ix.Add(id, vec); err != nil {
				t.Fatal(err)
			}
			live[id] = vec
			ids = append(ids, id)
		}
	}
	for _, id := range ids[5:12] {
		if !ix.Remove(id) {
			t.Fatalf("Remove(%d) = false for a live id", id)
		}
		delete(live, id)
	}
	if len(live) < 40 {
		t.Fatalf("only %d live vectors", len(live))
	}

	queries := [][]float64{make([]float64, sk.Dim()), sk.Sketch(randString(r, 3))}
	for _, id := range ids[:8] {
		queries = append(queries, sk.Sketch(randString(xrand.New(uint64(id)), 4)))
		if vec, ok := live[id]; ok {
			queries = append(queries, vec)
		}
	}
	n := len(live)
	excludes := []int{-1, ids[0], ids[6], 1 << 20}
	for qi, q := range queries {
		for _, exclude := range excludes {
			for _, k := range []int{-1, 0, 1, 10, n - 1, n, n + 5, 1 << 62} {
				want := referenceSearch(live, q, k, exclude)
				got := ix.Search(q, k, exclude)
				if !candidatesEqual(got, want) {
					t.Fatalf("query %d, k=%d, exclude=%d: got %v, want %v", qi, k, exclude, got, want)
				}
			}
		}
	}
}

// workloadSketches sketches n traces drawn in turn from
// iogen.LoadCategories, the load harness's corpus.
func workloadSketches(tb testing.TB, n int) [][]float64 {
	tb.Helper()
	r := xrand.New(iogen.ClientSeed(1, 0))
	sk := New(Options{})
	vecs := make([][]float64, n)
	for i := range vecs {
		tr, err := iogen.GenerateExtended(iogen.LoadCategories[i%len(iogen.LoadCategories)], r)
		if err != nil {
			tb.Fatal(err)
		}
		vecs[i] = sk.Sketch(core.Convert(tr, core.Options{}))
	}
	return vecs
}

// BenchmarkIndexSearch measures one by-id search over workload-trace
// sketches at the default shortlist of a k=10 query (40 candidates).
func BenchmarkIndexSearch(b *testing.B) {
	for _, n := range []int{512, 4096} {
		vecs := workloadSketches(b, n)
		ix := NewIndex(DefaultDim)
		for id, vec := range vecs {
			if err := ix.Add(id, vec); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id := i % n
				ix.Search(vecs[id], 40, id)
			}
		})
	}
}
