package engine

import (
	"sync"
	"testing"

	"iokast/internal/core"
	"iokast/internal/kernel"
)

// TestEngineConcurrentAddGram hammers one engine with concurrent writers
// (Add, Remove) and readers (Gram, NormalizedGram, Similar, Len, Strings).
// Run under -race this is the engine's thread-safety proof; without -race
// it still checks the final state is a consistent corpus whose snapshot
// matches a batch recompute.
func TestEngineConcurrentAddGram(t *testing.T) {
	xs := corpus(t, 24, 99)
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 4})

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(xs); i += writers {
				e.Add(xs[i])
			}
		}()
	}
	// Readers run concurrently with the writers; every snapshot they see
	// must at least be well-formed (square, symmetric, diagonal >= 0).
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, ids := e.Gram()
				if g.Rows != len(ids) || g.Cols != len(ids) {
					t.Errorf("snapshot %dx%d with %d ids", g.Rows, g.Cols, len(ids))
					return
				}
				if !g.IsSymmetric(0) {
					t.Error("snapshot not symmetric")
					return
				}
				if len(ids) > 0 {
					// Entries are never removed in this test, so every
					// snapshot id stays queryable.
					if _, err := e.Similar(ids[len(ids)-1], 3); err != nil {
						t.Errorf("Similar(%d): %v", ids[len(ids)-1], err)
						return
					}
					if _, err := e.SimilarApprox(ids[len(ids)-1], 3, -1); err != nil {
						t.Errorf("SimilarApprox(%d): %v", ids[len(ids)-1], err)
						return
					}
				}
				if _, err := e.SimilarTrace(xs[0], 3, -1); err != nil {
					t.Errorf("SimilarTrace: %v", err)
					return
				}
				e.Strings()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if t.Failed() {
		return
	}

	// Concurrent Adds interleave arbitrarily, so compare against a batch
	// Gram over the corpus in the id order the engine settled on.
	final, ids := e.Gram()
	got, _ := e.Strings()
	if len(ids) != len(xs) {
		t.Fatalf("corpus has %d entries, want %d", len(ids), len(xs))
	}
	want := kernel.Gram(&core.Kast{CutWeight: 2}, got)
	if d := final.MaxAbsDiff(want); d != 0 {
		t.Errorf("post-race Gram differs from batch by %g", d)
	}
}

// TestEngineConcurrentRemove interleaves Remove with Add and readers.
func TestEngineConcurrentRemove(t *testing.T) {
	xs := corpus(t, 20, 123)
	e := New(Options{Kernel: &core.Kast{CutWeight: 1}})
	ids := make(chan int, len(xs))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, x := range xs {
			ids <- e.Add(x)
		}
		close(ids)
	}()
	go func() {
		defer wg.Done()
		n := 0
		for id := range ids {
			if n%3 == 0 {
				if err := e.Remove(id); err != nil {
					t.Errorf("Remove(%d): %v", id, err)
				}
			}
			n++
			e.Gram()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	wantLive := len(xs) - (len(xs)+2)/3
	if n := e.Len(); n != wantLive {
		t.Fatalf("live entries = %d, want %d", n, wantLive)
	}
	final, _ := e.Gram()
	got, _ := e.Strings()
	want := kernel.Gram(&core.Kast{CutWeight: 1}, got)
	if d := final.MaxAbsDiff(want); d != 0 {
		t.Errorf("post-race Gram differs from batch by %g", d)
	}
}

// TestEngineConcurrentAddBatch mixes AddBatch with single Adds and
// readers. Both build their entries outside the lock and commit under
// it; the final state must still equal a batch Gram over the settled
// corpus.
func TestEngineConcurrentAddBatch(t *testing.T) {
	xs := corpus(t, 32, 55)
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 4})

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for lo := 0; lo < 16; lo += 4 {
			if _, err := e.AddBatch(xs[lo : lo+4]); err != nil {
				t.Errorf("AddBatch: %v", err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, x := range xs[16:24] {
			e.Add(x)
		}
	}()
	go func() {
		defer wg.Done()
		for lo := 24; lo < 32; lo += 2 {
			if _, err := e.AddBatch(xs[lo : lo+2]); err != nil {
				t.Errorf("AddBatch: %v", err)
			}
		}
	}()
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			g, ids := e.Gram()
			if g.Rows != len(ids) || !g.IsSymmetric(0) {
				t.Error("mid-race snapshot malformed")
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if t.Failed() {
		return
	}

	final, ids := e.Gram()
	got, _ := e.Strings()
	if len(ids) != len(xs) {
		t.Fatalf("corpus has %d entries, want %d", len(ids), len(xs))
	}
	want := kernel.Gram(&core.Kast{CutWeight: 2}, got)
	if d := final.MaxAbsDiff(want); d != 0 {
		t.Errorf("post-race Gram differs from batch by %g", d)
	}
}

// TestEngineConcurrentQueriesAndRemove runs by-id and trace queries, which
// evaluate the kernel after releasing the read lock, against concurrent
// Remove and AddBatch. A candidate removed mid-query is still scored from
// its immutable entry, every answer stays well formed, and the settled
// engine answers like a brute-force Gram.
func TestEngineConcurrentQueriesAndRemove(t *testing.T) {
	xs := corpus(t, 40, 77)
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	if _, err := e.AddBatch(xs[:20]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := e.Remove(2 * i); err != nil {
				t.Errorf("Remove(%d): %v", 2*i, err)
				return
			}
			if _, err := e.AddBatch(xs[20+2*i : 22+2*i]); err != nil {
				t.Errorf("AddBatch: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				id := 1 + 2*((i+r)%10) // odd ids below 20 are never removed
				ns, err := e.Similar(id, 5)
				if err != nil {
					t.Errorf("Similar(%d): %v", id, err)
					return
				}
				if len(ns) != 5 {
					t.Errorf("Similar(%d) returned %d neighbours, want 5", id, len(ns))
					return
				}
				for _, n := range ns {
					if n.ID == id {
						t.Errorf("Similar(%d) returned the query itself", id)
						return
					}
				}
				if _, err := e.SimilarApprox(id, 5, -1); err != nil {
					t.Errorf("SimilarApprox(%d): %v", id, err)
					return
				}
				if _, err := e.SimilarTrace(xs[(i+r)%len(xs)], 5, -1); err != nil {
					t.Errorf("SimilarTrace: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	assertByIDMatchesBrute(t, "settled", e)
}
