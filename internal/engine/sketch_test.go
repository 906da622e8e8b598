package engine

import (
	"bytes"
	"math"
	"testing"

	"iokast/internal/core"
	"iokast/internal/token"
)

// sketchStatesEqual compares the full sketch index of two engines bit for
// bit: same id space, same tombstones, identical vector bits.
func sketchStatesEqual(t *testing.T, a, b *Engine) {
	t.Helper()
	if !a.ix.Equal(b.ix) {
		t.Fatal("sketch indexes differ")
	}
}

// TestSketchIncrementalVsBatchEquivalence is the index analogue of the
// Gram equivalence tests: one trace at a time, one batch, or mixed
// batches, with removals sprinkled in — the final sketch index must be
// bit-identical because sketches depend only on (string, dim, seed).
func TestSketchIncrementalVsBatchEquivalence(t *testing.T) {
	xs := corpus(t, 24, 5)
	for _, kern := range []*core.Kast{
		{CutWeight: 2},
		{CutWeight: 4},
	} {
		opts := Options{Kernel: kern, SketchDim: 64, SketchSeed: 17}
		inc := New(opts)
		for _, x := range xs {
			inc.Add(x)
		}
		batch := New(opts)
		if _, err := batch.AddBatch(xs); err != nil {
			t.Fatal(err)
		}
		mixed := New(opts)
		if _, err := mixed.AddBatch(xs[:10]); err != nil {
			t.Fatal(err)
		}
		for _, x := range xs[10:15] {
			mixed.Add(x)
		}
		if _, err := mixed.AddBatch(xs[15:]); err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{3, 11, 23} {
			for _, e := range []*Engine{inc, batch, mixed} {
				if err := e.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		sketchStatesEqual(t, inc, batch)
		sketchStatesEqual(t, inc, mixed)
		if inc.SketchVec(3) != nil {
			t.Fatal("tombstoned id still has a sketch")
		}
		if inc.SketchVec(4) == nil {
			t.Fatal("live id lost its sketch")
		}
	}
}

// TestSketchSnapshotRestoreBitIdentical asserts crash-recovery fidelity at
// the engine level: a snapshot carries the sketch index, and a restored
// engine holds exactly the same bits — without recomputing them.
func TestSketchSnapshotRestoreBitIdentical(t *testing.T) {
	xs := corpus(t, 16, 9)
	opts := Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: 96, SketchSeed: 3}
	e := New(opts)
	if _, err := e.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(7); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rec := New(opts)
	if err := rec.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	sketchStatesEqual(t, e, rec)

	// The restored engine must answer approximate queries identically.
	for _, id := range []int{0, 5, 12} {
		want, err := e.SimilarApprox(id, 5, -1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.SimilarApprox(id, 5, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("id %d: %d vs %d neighbors", id, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("id %d neighbor %d: %+v vs %+v", id, i, want[i], got[i])
			}
		}
	}
}

// TestSketchRestoreReconfigured: restoring a snapshot under a different
// sketch configuration discards the persisted vectors and recomputes, so
// the restored engine matches a from-scratch engine with the new config.
func TestSketchRestoreReconfigured(t *testing.T) {
	xs := corpus(t, 12, 2)
	old := New(Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: 64, SketchSeed: 1})
	if _, err := old.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := old.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	newOpts := Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: 32, SketchSeed: 8}
	rec := New(newOpts)
	if err := rec.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := New(newOpts)
	if _, err := fresh.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	sketchStatesEqual(t, rec, fresh)
}

// TestSketchDisabled: SketchDim < 0 turns the subsystem off; approximate
// queries fail cleanly, query-by-trace degrades to the exact scan, and
// snapshots round-trip without a sketch section.
func TestSketchDisabled(t *testing.T) {
	xs := corpus(t, 8, 4)
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: -1})
	if _, err := e.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	if _, _, enabled := e.SketchConfig(); enabled {
		t.Fatal("sketching reported enabled")
	}
	if _, err := e.SimilarApprox(0, 3, -1); err == nil {
		t.Fatal("SimilarApprox succeeded with sketching disabled")
	}
	if e.SketchVec(0) != nil {
		t.Fatal("SketchVec returned a vector with sketching disabled")
	}
	ns, err := e.SimilarTrace(xs[0], 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 3 || ns[0].ID != 0 || math.Abs(ns[0].Similarity-1) > 1e-12 {
		t.Fatalf("exact fallback neighbors = %+v", ns)
	}
	var buf bytes.Buffer
	if _, err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rec := New(Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: -1})
	if err := rec.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != e.Len() {
		t.Fatalf("restored %d entries, want %d", rec.Len(), e.Len())
	}
}

// TestSketchDisabledReadsSketchSnapshot: an engine without sketching must
// still restore a snapshot that carries sketches (the block is skipped).
func TestSketchDisabledReadsSketchSnapshot(t *testing.T) {
	xs := corpus(t, 8, 6)
	withSketch := New(Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: 64})
	if _, err := withSketch.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := withSketch.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rec := New(Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: -1})
	if err := rec.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	gWant, _ := withSketch.Gram()
	gGot, _ := rec.Gram()
	if d := gGot.MaxAbsDiff(gWant); d != 0 {
		t.Fatalf("restored Gram differs by %g", d)
	}
}

// TestSimilarTraceDoesNotIngest: a query-by-trace leaves the corpus, the
// sequence number, and the id space untouched.
func TestSimilarTraceDoesNotIngest(t *testing.T) {
	xs := corpus(t, 6, 8)
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	if _, err := e.AddBatch(xs[:5]); err != nil {
		t.Fatal(err)
	}
	lenBefore, seqBefore, nextBefore := e.Len(), e.Seq(), e.NextID()
	if _, err := e.SimilarTrace(xs[5], 3, -1); err != nil {
		t.Fatal(err)
	}
	if e.Len() != lenBefore || e.Seq() != seqBefore || e.NextID() != nextBefore {
		t.Fatalf("query-by-trace mutated engine: len %d->%d seq %d->%d next %d->%d",
			lenBefore, e.Len(), seqBefore, e.Seq(), nextBefore, e.NextID())
	}
	if _, err := e.SimilarTrace(token.String{}, 3, -1); err == nil {
		t.Fatal("empty query accepted")
	}
}
