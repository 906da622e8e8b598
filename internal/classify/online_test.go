package classify

import (
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/iogen"
	"iokast/internal/kernel"
	"iokast/internal/token"
	"iokast/internal/xrand"
)

// labelledCorpus builds a labelled corpus from the paper's synthetic
// generator (reader/writer/mixed-style families A..D) and a held-out query
// set with ground-truth labels, deterministically.
func labelledCorpus(t testing.TB, seed uint64) (refs []token.String, refLabels []string, queries []token.String, queryLabels []string) {
	t.Helper()
	ds, err := iogen.Build(iogen.Options{
		Seed: seed,
		Bases: map[iogen.Category]int{
			iogen.CatFlash: 3, iogen.CatRandomPOSIX: 3, iogen.CatNormal: 3, iogen.CatRandomAccess: 3,
		},
		CopiesPerBase:    2,
		MutationsPerCopy: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := core.ConvertAll(ds.Traces, core.Options{})
	r := xrand.New(seed + 99)
	for i := range xs {
		if r.Bool(0.6) || len(refs) == 0 {
			refs = append(refs, xs[i])
			refLabels = append(refLabels, ds.Labels[i])
		} else {
			queries = append(queries, xs[i])
			queryLabels = append(queryLabels, ds.Labels[i])
		}
	}
	return refs, refLabels, queries, queryLabels
}

// labelsMatch treats C and D as interchangeable, as the dataset tests do
// (the paper's clusters merge them).
func labelsMatch(got, want string) bool {
	return got == want || (got == "C" && want == "D") || (got == "D" && want == "C")
}

// Quality harness: online classification over a live engine must reach the
// pinned accuracy floor on labelled synthetic corpora, for the paper's
// kernel at two cut weights and under the total-weight viability rule.
func TestOnlineClassificationQuality(t *testing.T) {
	kernels := []struct {
		name string
		make func() kernel.Kernel
	}{
		{"kast-cut2", func() kernel.Kernel { return &core.Kast{CutWeight: 2} }},
		{"kast-cut4", func() kernel.Kernel { return &core.Kast{CutWeight: 4} }},
		{"kast-cut2-total", func() kernel.Kernel { return &core.Kast{CutWeight: 2, Viability: core.ViaTotalWeight} }},
	}
	refs, refLabels, queries, queryLabels := labelledCorpus(t, 7)
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			eng := engine.New(engine.Options{Kernel: kc.make()})
			if _, err := eng.AddBatch(refs); err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry()
			for i, l := range refLabels {
				if err := reg.SetLabel(i, l); err != nil {
					t.Fatal(err)
				}
			}
			o := NewOnline(eng, reg)
			correct := 0
			for i, q := range queries {
				res, err := o.Classify(q, 3, len(refs))
				if err != nil {
					t.Fatal(err)
				}
				if res.Label == "" {
					t.Fatalf("query %d: no label (votes %v)", i, res.Votes)
				}
				if res.Confidence <= 0 || res.Confidence > 1 {
					t.Fatalf("query %d: confidence %v out of range", i, res.Confidence)
				}
				if labelsMatch(res.Label, queryLabels[i]) {
					correct++
				}
			}
			acc := float64(correct) / float64(len(queries))
			if acc < 0.9 {
				t.Fatalf("accuracy %.2f (%d/%d) below the 0.9 floor", acc, correct, len(queries))
			}
		})
	}
}

// Structural contract of Classify: k=0 gives an empty-but-well-formed
// result, unlabelled neighbours appear but do not vote, and votes order
// deterministically.
func TestOnlineClassifyStructure(t *testing.T) {
	eng := engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}})
	a := token.String{{Literal: "root", Weight: 1}, {Literal: "w", Weight: 8}, {Literal: "w", Weight: 8}}
	b := token.String{{Literal: "root", Weight: 1}, {Literal: "w", Weight: 7}, {Literal: "w", Weight: 9}}
	c := token.String{{Literal: "root", Weight: 1}, {Literal: "r", Weight: 4}, {Literal: "s", Weight: 2}}
	eng.Add(a)
	eng.Add(b)
	eng.Add(c)
	reg := NewRegistry()
	if err := reg.SetLabels(map[int]string{0: "writer", 2: "seeker"}); err != nil {
		t.Fatal(err) // id 1 stays unlabelled
	}
	o := NewOnline(eng, reg)

	// k = 0: empty but valid.
	res, err := o.Classify(a, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "" || res.Confidence != 0 {
		t.Fatalf("k=0 classified: %+v", res)
	}
	if res.Votes == nil || res.Neighbors == nil {
		t.Fatal("k=0 result holds nil slices (JSON would be null)")
	}
	if len(res.Votes) != 0 || len(res.Neighbors) != 0 {
		t.Fatalf("k=0 result not empty: %+v", res)
	}

	// Full query: the unlabelled neighbour is listed but does not vote.
	res, err = o.Classify(a, -1, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "writer" {
		t.Fatalf("label %q", res.Label)
	}
	if len(res.Neighbors) != 3 {
		t.Fatalf("neighbors %v", res.Neighbors)
	}
	voted := 0
	for _, v := range res.Votes {
		voted += v.Count
	}
	if voted != 2 {
		t.Fatalf("%d ballots cast, want 2 (unlabelled neighbour must not vote)", voted)
	}
	for _, nb := range res.Neighbors {
		if nb.ID == 1 && nb.Label != "" {
			t.Fatalf("unlabelled neighbour carries label %q", nb.Label)
		}
	}
	total := 0.0
	for _, v := range res.Votes {
		total += v.Weight
	}
	if want := res.Votes[0].Weight / total; res.Confidence != want {
		t.Fatalf("confidence %v, want %v", res.Confidence, want)
	}

	// Nothing labelled at all: valid empty classification, not an error.
	empty := NewOnline(eng, NewRegistry())
	res, err = empty.Classify(a, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "" || len(res.Votes) != 0 || len(res.Neighbors) != 2 {
		t.Fatalf("unlabelled-corpus result: %+v", res)
	}
}

// The batch Classifier and the Online classifier are one implementation:
// same winner on every query when fed the same references and k.
func TestBatchMatchesOnline(t *testing.T) {
	refs, refLabels, queries, _ := labelledCorpus(t, 13)
	batch, err := New(&core.Kast{CutWeight: 2}, refs, refLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}})
	if _, err := eng.AddBatch(refs); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	for i, l := range refLabels {
		if err := reg.SetLabel(i, l); err != nil {
			t.Fatal(err)
		}
	}
	online := NewOnline(eng, reg)
	for i, q := range queries {
		wantLabel, _, err := batch.Classify(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := online.Classify(q, 3, len(refs))
		if err != nil {
			t.Fatal(err)
		}
		if res.Label != wantLabel {
			t.Fatalf("query %d: batch %q, online %q (votes %v)", i, wantLabel, res.Label, res.Votes)
		}
	}
}
