package classify

import (
	"fmt"
	"math"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/kernel"
	"iokast/internal/shard"
)

// The acceptance guarantee of online classification: a sharded corpus
// classifies bit-identically to a single engine over the same corpus —
// same winning label, same confidence bits, same vote weights, same
// neighbour lists — at every shard count, because (with an exact rerank)
// the per-shard SimilarTrace results merge bit-identically (the PR 4
// equivalence guarantee) and votes accumulate in that shared neighbour
// order. Harness style follows internal/shard/equiv_test.go.
func TestClassificationShardedParity(t *testing.T) {
	kernels := []struct {
		name string
		make func() kernel.Kernel
	}{
		{"kast-cut2", func() kernel.Kernel { return &core.Kast{CutWeight: 2} }},
		{"kast-cut4", func() kernel.Kernel { return &core.Kast{CutWeight: 4} }},
		{"kast-cut2-total", func() kernel.Kernel { return &core.Kast{CutWeight: 2, Viability: core.ViaTotalWeight} }},
	}
	refs, refLabels, queries, _ := labelledCorpus(t, 21)
	reg := NewRegistry()
	for i, l := range refLabels {
		if err := reg.SetLabel(i, l); err != nil {
			t.Fatal(err)
		}
	}
	for _, kc := range kernels {
		eng := engine.New(engine.Options{Kernel: kc.make()})
		if _, err := eng.AddBatch(refs); err != nil {
			t.Fatal(err)
		}
		single := NewOnline(eng, reg)
		want := make([]*Result, len(queries))
		for i, q := range queries {
			res, err := single.Classify(q, 5, len(refs))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		for _, shards := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", kc.name, shards), func(t *testing.T) {
				sh, err := shard.New(shard.Options{
					Shards: shards,
					Seed:   0xc0ffee,
					Engine: engine.Options{Kernel: kc.make()},
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sh.AddBatch(refs); err != nil {
					t.Fatal(err)
				}
				o := NewOnline(sh, reg)
				for i, q := range queries {
					got, err := o.Classify(q, 5, len(refs))
					if err != nil {
						t.Fatal(err)
					}
					assertResultsEqual(t, fmt.Sprintf("query %d", i), want[i], got)
				}
			})
		}
	}
}

func assertResultsEqual(t *testing.T, ctx string, want, got *Result) {
	t.Helper()
	if got.Label != want.Label {
		t.Fatalf("%s: label %q, want %q", ctx, got.Label, want.Label)
	}
	if math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
		t.Fatalf("%s: confidence %x, want %x", ctx, math.Float64bits(got.Confidence), math.Float64bits(want.Confidence))
	}
	if len(got.Votes) != len(want.Votes) {
		t.Fatalf("%s: %d votes, want %d\n got: %v\nwant: %v", ctx, len(got.Votes), len(want.Votes), got.Votes, want.Votes)
	}
	for i := range want.Votes {
		if got.Votes[i].Label != want.Votes[i].Label ||
			got.Votes[i].Count != want.Votes[i].Count ||
			math.Float64bits(got.Votes[i].Weight) != math.Float64bits(want.Votes[i].Weight) {
			t.Fatalf("%s: vote %d: got %+v, want %+v", ctx, i, got.Votes[i], want.Votes[i])
		}
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%s: %d neighbors, want %d", ctx, len(got.Neighbors), len(want.Neighbors))
	}
	for i := range want.Neighbors {
		if got.Neighbors[i].ID != want.Neighbors[i].ID ||
			got.Neighbors[i].Label != want.Neighbors[i].Label ||
			math.Float64bits(got.Neighbors[i].Similarity) != math.Float64bits(want.Neighbors[i].Similarity) {
			t.Fatalf("%s: neighbor %d: got %+v, want %+v", ctx, i, got.Neighbors[i], want.Neighbors[i])
		}
	}
}

// Parity holds across a durable kill-and-recover cycle too: labels come
// back from the atomically committed labels file, the corpus from the
// per-shard WALs, and classification answers stay bit-identical.
func TestClassificationParityAfterRecovery(t *testing.T) {
	refs, refLabels, queries, _ := labelledCorpus(t, 33)
	dir := t.TempDir()

	reg, err := OpenRegistry(dir + "/LABELS")
	if err != nil {
		t.Fatal(err)
	}
	opt := shard.Options{Shards: 4, Seed: 9, Engine: engine.Options{Kernel: &core.Kast{CutWeight: 2}}}
	sh, err := shard.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.AddBatch(refs); err != nil {
		t.Fatal(err)
	}
	for i, l := range refLabels {
		if err := reg.SetLabel(i, l); err != nil {
			t.Fatal(err)
		}
	}
	o := NewOnline(sh, reg)
	want := make([]*Result, len(queries))
	for i, q := range queries {
		if want[i], err = o.Classify(q, 5, len(refs)); err != nil {
			t.Fatal(err)
		}
	}

	// Kill: no Close on either the corpus or the registry.
	reg2, err := OpenRegistry(dir + "/LABELS")
	if err != nil {
		t.Fatal(err)
	}
	sh2, err := shard.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	o2 := NewOnline(sh2, reg2)
	for i, q := range queries {
		got, err := o2.Classify(q, 5, len(refs))
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, fmt.Sprintf("recovered query %d", i), want[i], got)
	}
}
