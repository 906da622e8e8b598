package engine

import (
	"fmt"
	"testing"

	"iokast/internal/core"
	"iokast/internal/iogen"
	"iokast/internal/token"
	"iokast/internal/xrand"
)

// workloadCorpus is the load harness's corpus in miniature: n traces drawn
// in turn from iogen.LoadCategories with iogen.GenerateExtended, from the
// stream perfbench's first client draws at seed 1, converted at the
// default options.
func workloadCorpus(t testing.TB, n int) []token.String {
	t.Helper()
	r := xrand.New(iogen.ClientSeed(1, 0))
	xs := make([]token.String, n)
	for i := range xs {
		tr, err := iogen.GenerateExtended(iogen.LoadCategories[i%len(iogen.LoadCategories)], r)
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = core.Convert(tr, core.Options{})
	}
	return xs
}

// tieAwareHits counts the slots of got that hold a true top-len(exact)
// neighbour: a result is a hit when it scores at least the exact answer's
// last similarity, so a tie at the cut counts whichever id it carries.
// This is how perfbench counts recall@10.
func tieAwareHits(got, exact []Neighbor) int {
	if len(exact) == 0 {
		return 0
	}
	cut := exact[len(exact)-1].Similarity
	hit := 0
	for _, nb := range got {
		if nb.Similarity >= cut {
			hit++
		}
	}
	return min(hit, len(exact))
}

// TestWorkloadRecall pins the approximate path's recall@10 on a workload
// corpus, as exact hit counts over by-id queries of the first 32 ids (320
// slots), at the default shortlist and three wider ones, over the flat
// index, the only one there is. The counts are deterministic: sketches and
// kernel values depend only on the strings and the configuration. A
// change that moves a count moved the sketches or the shortlist, not
// noise.
func TestWorkloadRecall(t *testing.T) {
	const (
		n       = 512
		queries = 32
		k       = 10
	)
	xs := workloadCorpus(t, n)
	// Hit counts by shortlist width.
	want := map[int]int{DefaultRerank(k): 110, 64: 111, 128: 146, 256: 320}
	e := New(Options{})
	if _, err := e.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	exact := make([][]Neighbor, queries)
	for q := range exact {
		var err error
		if exact[q], err = e.Similar(q, k); err != nil {
			t.Fatal(err)
		}
	}
	for _, width := range []int{DefaultRerank(k), 64, 128, 256} {
		t.Run(fmt.Sprintf("flat/rerank=%d", width), func(t *testing.T) {
			hits := 0
			for q := range exact {
				got, err := e.SimilarApprox(q, k, width)
				if err != nil {
					t.Fatal(err)
				}
				hits += tieAwareHits(got, exact[q])
			}
			t.Logf("recall@%d = %d/%d = %.3f", k, hits, queries*k, float64(hits)/float64(queries*k))
			if hits != want[width] {
				t.Errorf("%d hits of %d, want %d", hits, queries*k, want[width])
			}
		})
	}
}
