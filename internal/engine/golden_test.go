package engine

import (
	"testing"

	"iokast/internal/core"
	"iokast/internal/kernel"
)

// TestEngineGoldenNormalizedPipeline grows a corpus trace-by-trace and
// asserts the final normalized Gram matrix equals the paper-pipeline batch
// result (kernel.Gram + NormalizeGramPaper + PSDRepair) within 1e-12. This
// is the end-to-end contract of the engine: a service built on incremental
// updates produces the same similarity matrix the paper's batch workflow
// would.
func TestEngineGoldenNormalizedPipeline(t *testing.T) {
	xs := corpus(t, 25, 2017)
	const cut = 2
	e := New(Options{Kernel: &core.Kast{CutWeight: cut}})
	for _, x := range xs {
		e.Add(x)
	}

	got, ids, _, err := e.NormalizedGram()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(xs) {
		t.Fatalf("got %d ids, want %d", len(ids), len(xs))
	}

	raw := kernel.Gram(&core.Kast{CutWeight: cut}, xs)
	norm, err := core.NormalizeGramPaper(raw, xs, cut)
	if err != nil {
		t.Fatal(err)
	}
	want, wantClipped, err := kernel.PSDRepair(norm)
	if err != nil {
		t.Fatal(err)
	}

	if d := got.MaxAbsDiff(want); d > 1e-12 {
		t.Errorf("incremental normalized Gram differs from batch pipeline by %g (tol 1e-12)", d)
	}

	_, _, gotClipped, err := e.NormalizedGram()
	if err != nil {
		t.Fatal(err)
	}
	if gotClipped != wantClipped {
		t.Errorf("clipped eigenvalues: engine %d, batch %d", gotClipped, wantClipped)
	}
}
