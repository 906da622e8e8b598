package sketch_test

// Index-level tests for the LSH-banded ANN path: configuration clamping,
// exactness fallbacks, determinism across build orders, and the recall
// harness at N=4096 — large enough that the banded path is genuinely
// active (the default shortlist is a tiny fraction of the corpus) rather
// than falling back to the flat scan as it does on small corpora.

import (
	"fmt"
	"math"
	"testing"

	"iokast/internal/kernel"
	"iokast/internal/sketch"
	"iokast/internal/token"
)

// annRand is a splitmix64 stream for deterministic corpus generation.
type annRand struct{ s uint64 }

func (r *annRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *annRand) intn(n int) int { return int(r.next() % uint64(n)) }

var annVocab = []string{
	"open", "close", "read[4096]", "write[4096]", "read[512]", "write[512]",
	"lseek+read[4096]", "lseek+write[4096]", "[ROOT]", "[HANDLE]",
	"read[32768]", "write[32768]", "[LEVEL_UP]", "[LEVEL_DOWN]", "fsync", "stat",
}

// annCorpus builds a clustered corpus mirroring the paper's trace
// distribution: bases of 40-56 tokens, each repeated copies times with a
// single token substitution — so every entry's true neighbourhood is its
// own cluster of near-duplicates at high sketch cosine, the regime LSH
// candidate generation is designed for (distant neighbours are what the
// exact rerank is for; see docs/ARCHITECTURE.md).
func annCorpus(bases, copies int, seed uint64) []token.String {
	r := &annRand{s: seed}
	out := make([]token.String, 0, bases*copies)
	for b := 0; b < bases; b++ {
		n := 40 + r.intn(17)
		base := make(token.String, n)
		for i := range base {
			base[i] = token.Token{Literal: annVocab[r.intn(len(annVocab))], Weight: 1 + r.intn(9)}
		}
		for c := 0; c < copies; c++ {
			x := append(token.String(nil), base...)
			x[r.intn(n)] = token.Token{Literal: annVocab[r.intn(len(annVocab))], Weight: 1 + r.intn(9)}
			out = append(out, x)
		}
	}
	return out
}

func TestANNConfigClamping(t *testing.T) {
	cases := []struct {
		bands, rows  int
		wantB, wantR int
		wantEnabled  bool
	}{
		{0, 8, 0, 0, false},
		{-3, 8, 0, 0, false},
		{16, 0, 16, sketch.DefaultRows, true},
		{16, 200, 16, sketch.MaxRows, true},
		{1 << 20, 8, 512, 8, true},
		{sketch.DefaultBands, sketch.DefaultRows, 16, 8, true},
	}
	for _, c := range cases {
		ix := sketch.NewIndexANN(64, c.bands, c.rows, 1)
		b, r, enabled := ix.ANNConfig()
		if b != c.wantB || r != c.wantR || enabled != c.wantEnabled {
			t.Errorf("NewIndexANN(64, %d, %d, 1): config (%d, %d, %v), want (%d, %d, %v)",
				c.bands, c.rows, b, r, enabled, c.wantB, c.wantR, c.wantEnabled)
		}
	}
	if b, r, enabled := sketch.NewIndex(64).ANNConfig(); b != 0 || r != 0 || enabled {
		t.Errorf("NewIndex: ANNConfig = (%d, %d, %v), want flat", b, r, enabled)
	}
}

// buildIndexes sketches a corpus into a flat and a banded index holding
// identical vectors.
func buildIndexes(t testing.TB, xs []token.String, bands, rows int, seed uint64) (flat, ann *sketch.Index, vecs [][]float64) {
	t.Helper()
	sk := sketch.New(sketch.Options{Seed: seed})
	flat = sketch.NewIndex(sk.Dim())
	ann = sketch.NewIndexANN(sk.Dim(), bands, rows, seed)
	vecs = make([][]float64, len(xs))
	for id, x := range xs {
		vecs[id] = sk.Sketch(x)
		if err := flat.Add(id, vecs[id]); err != nil {
			t.Fatal(err)
		}
		if err := ann.Add(id, vecs[id]); err != nil {
			t.Fatal(err)
		}
	}
	return flat, ann, vecs
}

func candidatesEqual(a, b []sketch.Candidate) bool {
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

// TestANNCoveringMatchesFlat asserts the exactness fallbacks: whenever k
// covers every reachable entry (k < 0, k >= live, or k >= live-1 with the
// query excluded), the banded index returns bit-identical results to the
// flat scan — the property that keeps full-rerank engine queries exact
// under ANN.
func TestANNCoveringMatchesFlat(t *testing.T) {
	xs := annCorpus(8, 4, 11)
	flat, ann, vecs := buildIndexes(t, xs, 8, 6, 7)
	n := len(xs)
	for _, k := range []int{-1, n, n + 5} {
		for id := 0; id < n; id += 5 {
			got := ann.Search(vecs[id], k, -1)
			want := flat.Search(vecs[id], k, -1)
			if !candidatesEqual(got, want) {
				t.Fatalf("k=%d id=%d: ANN covering search diverges from flat", k, id)
			}
		}
	}
	// Excluding the query: k = live-1 covers all remaining entries.
	for id := 0; id < n; id += 7 {
		got := ann.Search(vecs[id], n-1, id)
		want := flat.Search(vecs[id], n-1, id)
		if !candidatesEqual(got, want) {
			t.Fatalf("id=%d: ANN covering-with-exclude search diverges from flat", id)
		}
	}
}

// TestANNDeterminism asserts search results are independent of build
// order and survive remove/re-add churn: two banded indexes holding the
// same live vectors return bit-identical candidates however they got
// there, and Equal agrees.
func TestANNDeterminism(t *testing.T) {
	xs := annCorpus(8, 4, 3)
	n := len(xs)
	sk := sketch.New(sketch.Options{Seed: 9})
	vecs := make([][]float64, n)
	for id, x := range xs {
		vecs[id] = sk.Sketch(x)
	}

	forward := sketch.NewIndexANN(sk.Dim(), 8, 6, 9)
	for id := 0; id < n; id++ {
		if err := forward.Add(id, vecs[id]); err != nil {
			t.Fatal(err)
		}
	}
	churned := sketch.NewIndexANN(sk.Dim(), 8, 6, 9)
	for id := n - 1; id >= 0; id-- {
		if err := churned.Add(id, vecs[id]); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstone churn: removing ids must fully unlink them from the
	// buckets; since ids are never reused, drop even ids and re-check
	// against a fresh index over the odd ones.
	if !forward.Equal(churned) {
		t.Fatal("indexes over the same vectors in different insert orders are not Equal")
	}
	for id := 0; id < n; id++ {
		got := churned.Search(vecs[id], 5, -1)
		want := forward.Search(vecs[id], 5, -1)
		if !candidatesEqual(got, want) {
			t.Fatalf("id=%d: search depends on insertion order", id)
		}
	}

	for id := 0; id < n; id += 2 {
		if !forward.Remove(id) {
			t.Fatalf("Remove(%d) = false", id)
		}
	}
	odd := sketch.NewIndexANN(sk.Dim(), 8, 6, 9)
	for id := 1; id < n; id += 2 {
		if err := odd.Add(id, vecs[id]); err != nil {
			t.Fatal(err)
		}
	}
	for id := 1; id < n; id += 2 {
		got := forward.Search(vecs[id], 5, -1)
		want := odd.Search(vecs[id], 5, -1)
		if !candidatesEqual(got, want) {
			t.Fatalf("id=%d: post-remove search diverges from fresh index over the live set", id)
		}
	}
	if removed := forward.Search(vecs[0], len(xs), -1); func() bool {
		for _, c := range removed {
			if c.ID%2 == 0 {
				return true
			}
		}
		return false
	}() {
		t.Fatal("tombstoned id surfaced in ANN search results")
	}
}

// TestANNSigsRoundTrip asserts AddSigned with persisted signatures builds
// the same index state (Equal, same searches) as recomputing them — the
// property snapshot restore leans on.
func TestANNSigsRoundTrip(t *testing.T) {
	xs := annCorpus(6, 4, 5)
	_, ann, vecs := buildIndexes(t, xs, 8, 6, 5)
	resigned := sketch.NewIndexANN(sketch.DefaultDim, 8, 6, 5)
	for id := range vecs {
		if err := resigned.AddSigned(id, vecs[id], ann.Sig(id)); err != nil {
			t.Fatal(err)
		}
	}
	if !ann.Equal(resigned) {
		t.Fatal("index rebuilt from persisted signatures is not Equal to the original")
	}
	for id := 0; id < len(xs); id += 3 {
		if !candidatesEqual(ann.Search(vecs[id], 5, -1), resigned.Search(vecs[id], 5, -1)) {
			t.Fatalf("id=%d: search diverges after signature round-trip", id)
		}
	}
}

// annRecallAt10 measures top-10 set recall of the banded index against
// the flat scan over the same vectors, averaged over sampled queries.
func annRecallAt10(flat, ann *sketch.Index, vecs [][]float64, stride int) float64 {
	const k = 10
	var sum float64
	queries := 0
	for id := 0; id < len(vecs); id += stride {
		want := flat.Search(vecs[id], k, -1)
		// Tie-aware recall: any returned candidate scoring at least the
		// k-th ground-truth score is a valid top-k answer (both paths
		// rescore in float64, so the comparison is exact).
		floor := want[len(want)-1].Score
		hits := 0
		for _, c := range ann.Search(vecs[id], k, -1) {
			if c.Score >= floor {
				hits++
			}
		}
		sum += float64(hits) / float64(len(want))
		queries++
	}
	return sum / float64(queries)
}

// TestANNRecall4096 asserts recall@10 >= 0.9 at N=4096 with the default
// banding, against the flat scan as ground truth, for sketches built the
// way each engine kernel builds them: the windowed-substring embedding
// (what every Kast engine uses — the embedding is cut-weight independent,
// so one corpus covers cut 2 and cut 4 alike) and the feature-map
// embedding of the featured kernels (Blended, Spectrum).
func TestANNRecall4096(t *testing.T) {
	if testing.Short() {
		t.Skip("N=4096 recall corpus is a few seconds of work")
	}
	xs := annCorpus(256, 16, 42)
	if len(xs) != 4096 {
		t.Fatalf("corpus size %d, want 4096", len(xs))
	}
	sk := sketch.New(sketch.Options{Seed: 1})

	embeddings := []struct {
		name string
		vec  func(x token.String) []float64
	}{
		{"kast-windows(cut2+cut4)", func(x token.String) []float64 { return sk.Sketch(x) }},
		{"blended-features", func(x token.String) []float64 {
			f, ok := kernel.Features(&kernel.Blended{P: 5, CutWeight: 2}, x)
			if !ok {
				t.Fatal("Blended is not featured")
			}
			return sk.SketchFeatures(f)
		}},
		{"spectrum-features", func(x token.String) []float64 {
			f, ok := kernel.Features(&kernel.Spectrum{K: 3, Mode: kernel.Count}, x)
			if !ok {
				t.Fatal("Spectrum is not featured")
			}
			return sk.SketchFeatures(f)
		}},
	}
	for _, emb := range embeddings {
		t.Run(emb.name, func(t *testing.T) {
			flat := sketch.NewIndex(sk.Dim())
			ann := sketch.NewIndexANN(sk.Dim(), sketch.DefaultBands, sketch.DefaultRows, 1)
			vecs := make([][]float64, len(xs))
			for id, x := range xs {
				vecs[id] = emb.vec(x)
				if err := flat.Add(id, vecs[id]); err != nil {
					t.Fatal(err)
				}
				if err := ann.Add(id, vecs[id]); err != nil {
					t.Fatal(err)
				}
			}
			recall := annRecallAt10(flat, ann, vecs, 64)
			t.Logf("%s: ANN recall@10 = %.3f at N=%d (bands=%d rows=%d)",
				emb.name, recall, len(xs), sketch.DefaultBands, sketch.DefaultRows)
			if recall < 0.9 {
				t.Errorf("%s: ANN recall@10 = %.3f, want >= 0.9", emb.name, recall)
			}
		})
	}
}

// TestANNPreparedQuerySharing asserts the fan-out contract: a query
// prepared on one index is valid on any index built under the same
// (dim, bands, rows, seed), and a query without ANN byproducts falls back
// to the exact flat scan.
func TestANNPreparedQuerySharing(t *testing.T) {
	xs := annCorpus(8, 4, 21)
	sk := sketch.New(sketch.Options{Seed: 4})
	a := sketch.NewIndexANN(sk.Dim(), 8, 6, 4)
	b := sketch.NewIndexANN(sk.Dim(), 8, 6, 4)
	flat := sketch.NewIndex(sk.Dim())
	vecs := make([][]float64, len(xs))
	for id, x := range xs {
		vecs[id] = sk.Sketch(x)
		for _, ix := range []*sketch.Index{a, b, flat} {
			if err := ix.Add(id, vecs[id]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id := 0; id < len(xs); id += 3 {
		q := a.PrepareQuery(vecs[id])
		if !candidatesEqual(b.SearchQuery(q, 5, -1), a.SearchQuery(q, 5, -1)) {
			t.Fatalf("id=%d: shared prepared query diverges across same-config indexes", id)
		}
		// A flat-prepared query on a banded index must fall back to the
		// exact scan.
		if !candidatesEqual(a.SearchQuery(flat.PrepareQuery(vecs[id]), 5, -1), flat.Search(vecs[id], 5, -1)) {
			t.Fatalf("id=%d: flat-prepared query on banded index is not the exact scan", id)
		}
	}
}

// TestANNSelfQuery pins the stored-query fast path the by-id queries use:
// SelfQuery must hand back the stored embedding and signature (no
// recompute), and searching with it must match searching with the stored
// vector prepared from scratch, excluding the id itself.
func TestANNSelfQuery(t *testing.T) {
	xs := annCorpus(8, 4, 34)
	flat, ann, vecs := buildIndexes(t, xs, 8, 6, 2)
	for _, ix := range []*sketch.Index{flat, ann} {
		for _, bad := range []int{-1, len(xs), len(xs) + 100} {
			if q := ix.SelfQuery(bad); q != nil {
				t.Fatalf("SelfQuery(%d) on %d-entry index returned non-nil", bad, len(xs))
			}
		}
		if !ix.Remove(3) {
			t.Fatal("Remove(3) reported nothing removed")
		}
		if q := ix.SelfQuery(3); q != nil {
			t.Fatal("SelfQuery on a tombstoned id returned non-nil")
		}
		for id := 0; id < len(xs); id += 5 {
			if id == 3 {
				continue
			}
			q := ix.SelfQuery(id)
			if q == nil {
				t.Fatalf("SelfQuery(%d) = nil for a live id", id)
			}
			got := ix.SearchQuery(q, 5, id)
			want := ix.Search(vecs[id], 5, id)
			if !candidatesEqual(got, want) {
				t.Fatalf("id=%d: SearchQuery(SelfQuery) diverges from Search with exclude", id)
			}
		}
	}
}

func BenchmarkANNSearch(b *testing.B) {
	xs := annCorpus(256, 16, 42)
	sk := sketch.New(sketch.Options{Seed: 1})
	vecs := make([][]float64, len(xs))
	for id, x := range xs {
		vecs[id] = sk.Sketch(x)
	}
	for _, cfg := range []struct {
		name        string
		bands, rows int
	}{{"flat", 0, 0}, {"ann", sketch.DefaultBands, sketch.DefaultRows}} {
		b.Run(fmt.Sprintf("%s/n=%d", cfg.name, len(xs)), func(b *testing.B) {
			ix := sketch.NewIndexANN(sk.Dim(), cfg.bands, cfg.rows, 1)
			for id := range vecs {
				if err := ix.Add(id, vecs[id]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := i % len(vecs)
				ix.SearchQuery(ix.SelfQuery(id), 10, id)
			}
		})
	}
}
