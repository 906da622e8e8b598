package shard

import (
	"fmt"
	"math"
	"testing"

	"iokast/internal/cli"
	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/kernel"
	"iokast/internal/store"
	"iokast/internal/token"
)

// The headline guarantee of the package: a Sharded corpus answers Similar
// and SimilarTrace bit-identically to one engine.Engine over the same
// corpus — same neighbor ids, same float64 bits, same order — at every cut
// weight, any shard count, and under interleaved Add/AddBatch/Remove.
// Normalized similarity is pairwise, so per-shard top-k lists merge
// exactly; and Kast accumulates integer-valued products in float64, which
// is exact, so a score computed in a shard's interner carries the same
// bits as the single engine's.

func assertNeighborsEqual(t *testing.T, ctx string, want, got []engine.Neighbor) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d neighbors, want %d\n got: %v\nwant: %v", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i].ID != got[i].ID ||
			math.Float64bits(want[i].Similarity) != math.Float64bits(got[i].Similarity) {
			t.Fatalf("%s: neighbor %d: got id=%d sim=%x, want id=%d sim=%x",
				ctx, i, got[i].ID, math.Float64bits(got[i].Similarity),
				want[i].ID, math.Float64bits(want[i].Similarity))
		}
	}
}

// kernelSpecs are the kernel configurations the equivalence suite sweeps:
// the paper's kernel at cut weights 0, 1, 2, 3 and 4.
var kernelSpecs = []cli.KernelSpec{
	{Name: "kast", CutWeight: 2},
	{Name: "kast", CutWeight: 4},
	{Name: "kast", CutWeight: 0},
	{Name: "kast", CutWeight: 1},
	{Name: "kast", CutWeight: 3},
}

var equivShardCounts = []int{1, 2, 4, 7}

// ingest applies the same interleaved mutation sequence to the single
// engine and the sharded corpus: batches, single adds, and removals mixed,
// so ids, tombstones, and per-shard local orders all get exercised.
func ingest(t *testing.T, eng *engine.Engine, sh *Sharded, xs []token.String) {
	t.Helper()
	step := func(singleIDs, shardIDs []int, err1, err2 error) {
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(singleIDs) != len(shardIDs) {
			t.Fatalf("id counts diverge: %v vs %v", singleIDs, shardIDs)
		}
		for i := range singleIDs {
			if singleIDs[i] != shardIDs[i] {
				t.Fatalf("ids diverge: %v vs %v", singleIDs, shardIDs)
			}
		}
	}
	a, err1 := eng.AddBatch(xs[:8])
	b, err2 := sh.AddBatch(xs[:8])
	step(a, b, err1, err2)
	for _, x := range xs[8:12] {
		step([]int{eng.Add(x)}, []int{sh.Add(x)}, nil, nil)
	}
	for _, id := range []int{3, 9} {
		if err := eng.Remove(id); err != nil {
			t.Fatal(err)
		}
		if err := sh.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	a, err1 = eng.AddBatch(xs[12:])
	b, err2 = sh.AddBatch(xs[12:])
	step(a, b, err1, err2)
}

func TestShardedMatchesSingleEngine(t *testing.T) {
	xs := corpus(t, 28, 7)
	queries := corpus(t, 32, 8)[28:] // held out: never ingested anywhere
	for _, spec := range kernelSpecs {
		for _, shards := range equivShardCounts {
			name := fmt.Sprintf("%s-cut%d-k%d/shards=%d", spec.Name, spec.CutWeight, spec.K, shards)
			t.Run(name, func(t *testing.T) {
				kern1, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				kern2, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				eng := engine.New(engine.Options{Kernel: kern1, SketchDim: -1})
				sh, err := New(Options{Shards: shards, Seed: 0xc0ffee, Engine: engine.Options{Kernel: kern2, SketchDim: -1}})
				if err != nil {
					t.Fatal(err)
				}
				ingest(t, eng, sh, xs)

				for id := 0; id < len(xs); id++ {
					for _, k := range []int{0, 3, 7, -1} {
						want, err1 := eng.Similar(id, k)
						got, err2 := sh.Similar(id, k)
						if (err1 == nil) != (err2 == nil) {
							t.Fatalf("Similar(%d,%d): errors diverge: %v vs %v", id, k, err1, err2)
						}
						if err1 != nil {
							continue // both reject (removed id)
						}
						assertNeighborsEqual(t, fmt.Sprintf("Similar(%d,%d)", id, k), want, got)
					}
				}
				for qi, q := range queries {
					for _, k := range []int{5, -1} {
						// rerank >= corpus size forces the exact path on
						// both sides, where bit-identity is guaranteed.
						want, err1 := eng.SimilarTrace(q, k, len(xs))
						got, err2 := sh.SimilarTrace(q, k, len(xs))
						if err1 != nil || err2 != nil {
							t.Fatal(err1, err2)
						}
						assertNeighborsEqual(t, fmt.Sprintf("SimilarTrace(q%d,%d)", qi, k), want, got)
					}
				}
			})
		}
	}
}

// TestShardedApproxFullRerank: with sketching enabled and a rerank covering
// the corpus, SimilarApprox must coincide with Similar — and therefore with
// the single engine — on every live id.
func TestShardedApproxFullRerank(t *testing.T) {
	xs := corpus(t, 24, 9)
	spec := cli.KernelSpec{Name: "kast", CutWeight: 2}
	kern1, _ := spec.Build()
	kern2, _ := spec.Build()
	eng := engine.New(engine.Options{Kernel: kern1})
	sh, err := New(Options{Shards: 4, Seed: 1, Engine: engine.Options{Kernel: kern2}})
	if err != nil {
		t.Fatal(err)
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
		assertNeighborsEqual(t, fmt.Sprintf("SimilarApprox(%d)", id), want, got)
	}
	// Default rerank still returns well-formed, self-free results.
	ns, err := sh.SimilarApprox(0, 6, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 6 {
		t.Fatalf("default rerank returned %d neighbors, want 6", len(ns))
	}
	for _, nb := range ns {
		if nb.ID == 0 {
			t.Fatal("approx neighbors contain the query id")
		}
	}
	// Disabled sketching is reported like the engine reports it.
	nosk, err := New(Options{Shards: 2, Engine: engine.Options{SketchDim: -1}})
	if err != nil {
		t.Fatal(err)
	}
	nosk.Add(xs[0])
	if _, err := nosk.SimilarApprox(0, 3, -1); err == nil {
		t.Fatal("SimilarApprox with sketching disabled succeeded")
	}
}

// TestShardedDurableMatchesSingleEngine: the bit-identity contract holds
// across a kill-without-close crash and concurrent per-shard recovery.
func TestShardedDurableMatchesSingleEngine(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 20, 11)
	spec := cli.KernelSpec{Name: "kast", CutWeight: 2}
	kern1, _ := spec.Build()
	kern2, _ := spec.Build()
	eng := engine.New(engine.Options{Kernel: kern1})
	opt := Options{Shards: 4, Seed: 5, Engine: engine.Options{Kernel: kern2}, Store: store.Options{SnapshotEvery: -1}}
	sh, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, eng, sh, xs)
	// Kill: no Close. Reopen concurrently recovers every shard WAL.
	r, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for id := 0; id < len(xs); id++ {
		want, err1 := eng.Similar(id, -1)
		got, err2 := r.Similar(id, -1)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("id %d: errors diverge: %v vs %v", id, err1, err2)
		}
		if err1 != nil {
			continue
		}
		assertNeighborsEqual(t, fmt.Sprintf("recovered Similar(%d)", id), want, got)
	}
}

// TestShardedByIDMatchesBruteForce: by-id queries fan out to every shard,
// and the owner shard drops the query's own id before truncating to k.
// Each answer must equal the cosine over a from-scratch kernel.Gram bit for
// bit. A query whose k-th neighbour lives in its owner shard catches an
// exclusion applied after per-shard truncation, which would lose that
// neighbour; every shard count must see such a query.
func TestShardedByIDMatchesBruteForce(t *testing.T) {
	all := corpus(t, 110, 13)
	xs := make([]token.String, 20)
	for i := range xs {
		xs[i] = all[i*len(all)/len(xs)]
	}
	const k, seed = 4, 5
	kern := &core.Kast{CutWeight: 2}
	for _, shards := range equivShardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sh, err := New(Options{Shards: shards, Seed: seed, Engine: engine.Options{
				Kernel: &core.Kast{CutWeight: 2}, SketchDim: 32}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sh.AddBatch(xs[:12]); err != nil {
				t.Fatal(err)
			}
			for _, x := range xs[12:] {
				sh.Add(x)
			}
			for _, id := range []int{4, 13} {
				if err := sh.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
			strs, ids := sh.Strings()
			g := kernel.Gram(kern, strs)
			ownerHoldsKth := 0
			for qi, q := range ids {
				var want []engine.Neighbor
				for j, id := range ids {
					if j == qi {
						continue
					}
					v := g.At(qi, j)
					if d := g.At(qi, qi) * g.At(j, j); d > 0 {
						v /= math.Sqrt(d)
					} else {
						v = 0
					}
					want = append(want, engine.Neighbor{ID: id, Similarity: v})
				}
				engine.SortNeighbors(want)
				want = want[:k]
				if Route(want[k-1].ID, seed, shards) == Route(q, seed, shards) {
					ownerHoldsKth++
				}
				got, err := sh.Similar(q, k)
				if err != nil {
					t.Fatal(err)
				}
				assertNeighborsEqual(t, fmt.Sprintf("Similar(%d)", q), want, got)
				if got, err = sh.SimilarApprox(q, k, len(ids)); err != nil {
					t.Fatal(err)
				}
				assertNeighborsEqual(t, fmt.Sprintf("SimilarApprox(%d, full)", q), want, got)
			}
			if ownerHoldsKth == 0 {
				t.Fatalf("no query has its %d-th neighbour in its owner shard", k)
			}
		})
	}
}
