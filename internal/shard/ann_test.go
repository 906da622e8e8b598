package shard

import (
	"fmt"
	"testing"

	"iokast/internal/cli"
	"iokast/internal/engine"
	"iokast/internal/sketch"
)

// TestShardedANNFullRerankMatchesSingle extends the bit-identity contract
// to LSH-banded candidate generation: with ANN enabled on every shard and
// a rerank covering the corpus, Similar, SimilarApprox, and SimilarTrace
// all coincide with a single ANN-enabled engine — approximation never
// leaks into answers when the rerank pays for exactness.
func TestShardedANNFullRerankMatchesSingle(t *testing.T) {
	xs := corpus(t, 24, 9)
	queries := corpus(t, 28, 10)[24:]
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			spec := cli.KernelSpec{Name: "kast", CutWeight: 2}
			kern1, _ := spec.Build()
			kern2, _ := spec.Build()
			eopt := engine.Options{Kernel: kern1, ANNBands: sketch.DefaultBands}
			eng := engine.New(eopt)
			shOpt := engine.Options{Kernel: kern2, ANNBands: sketch.DefaultBands}
			sh, err := New(Options{Shards: shards, Seed: 1, Engine: shOpt})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, enabled := sh.ANNConfig(); !enabled {
				t.Fatal("ANN not enabled on the sharded corpus")
			}
			ingest(t, eng, sh, xs)
			for id := 0; id < len(xs); id++ {
				want, err1 := eng.Similar(id, 6)
				got, err2 := sh.SimilarApprox(id, 6, len(xs))
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("id %d: errors diverge: %v vs %v", id, err1, err2)
				}
				if err1 != nil {
					continue
				}
				assertNeighborsEqual(t, fmt.Sprintf("ANN SimilarApprox(%d)", id), want, got)

				gotExact, err := sh.Similar(id, 6)
				if err != nil {
					t.Fatal(err)
				}
				assertNeighborsEqual(t, fmt.Sprintf("ANN Similar(%d)", id), want, gotExact)
			}
			for qi, q := range queries {
				want, err1 := eng.SimilarTrace(q, 5, len(xs))
				got, err2 := sh.SimilarTrace(q, 5, len(xs))
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				assertNeighborsEqual(t, fmt.Sprintf("ANN SimilarTrace(q%d)", qi), want, got)
			}
		})
	}
}

// TestSimilarTraceSketchesOnce is the regression test for the fan-out
// fix: a sharded query-by-trace must embed the query exactly once and
// share the prepared sketch across every shard, not re-sketch per shard.
func TestSimilarTraceSketchesOnce(t *testing.T) {
	xs := corpus(t, 20, 3)
	queries := corpus(t, 24, 4)[20:]
	for _, spec := range []cli.KernelSpec{
		{Name: "kast", CutWeight: 2},
		{Name: "kast", CutWeight: 4},
	} {
		kern, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		sh, err := New(Options{Shards: 4, Seed: 2, Engine: engine.Options{Kernel: kern, ANNBands: sketch.DefaultBands}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.AddBatch(xs); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			before := sketch.SketchOps()
			if _, err := sh.SimilarTrace(q, 5, -1); err != nil {
				t.Fatal(err)
			}
			if ops := sketch.SketchOps() - before; ops != 1 {
				t.Fatalf("cut %d query %d: %d sketch operations for one fan-out, want 1", spec.CutWeight, qi, ops)
			}
		}
	}
}
