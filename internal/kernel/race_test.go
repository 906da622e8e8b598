package kernel

import (
	"sync"
	"testing"

	"iokast/internal/token"
)

// Race-oriented coverage for the parallel machinery. These tests are most
// meaningful under `go test -race`, which the CI workflow runs.

// TestParallelForRace checks every index is visited exactly once for a
// range of worker counts, including workers > n and the serial fallback.
func TestParallelForRace(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		visits := make([]int, n)
		ParallelFor(n, workers, func(i int) { visits[i]++ })
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
	// n = 0 must not deadlock or spawn anything.
	ParallelFor(0, 4, func(int) { t.Fatal("fn called for empty range") })
}

// TestGramConcurrentSameKernel runs Gram concurrently on one shared kernel
// value, which is how the engine and any server use it: the featurer fast
// path must not share mutable per-call state across goroutines.
func TestGramConcurrentSameKernel(t *testing.T) {
	xs := make([]token.String, 12)
	for i := range xs {
		xs[i] = token.String{
			{Literal: "a", Weight: i + 1},
			{Literal: "b", Weight: 2*i + 1},
			{Literal: "a", Weight: 3},
		}
	}
	kernels := []Kernel{
		&Spectrum{K: 2},
		&Blended{P: 3, CutWeight: 2},
		Normalized{K: &Spectrum{K: 1}},
	}
	for _, k := range kernels {
		k := k
		want := Gram(k, xs)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := GramWorkers(k, xs, 3)
				if d := got.MaxAbsDiff(want); d != 0 {
					t.Errorf("%s: concurrent Gram drifted by %g", k.Name(), d)
				}
			}()
		}
		wg.Wait()
	}
}

// TestFeaturesFastPathMatchesCompare pins Gram's featurer fast path
// (cached feature maps + dotFeatures) to the kernel's own Compare.
func TestFeaturesFastPathMatchesCompare(t *testing.T) {
	a := token.String{{Literal: "x", Weight: 4}, {Literal: "y", Weight: 2}, {Literal: "x", Weight: 4}}
	b := token.String{{Literal: "y", Weight: 3}, {Literal: "x", Weight: 5}}
	for _, k := range []Kernel{&Spectrum{K: 1}, &Spectrum{K: 2}, &Blended{P: 3}} {
		f, ok := k.(featurer)
		if !ok {
			t.Fatalf("%s does not expose features", k.Name())
		}
		if got, want := dotFeatures(f.features(a), f.features(b)), k.Compare(a, b); got != want {
			t.Errorf("%s: dotFeatures = %g, Compare = %g", k.Name(), got, want)
		}
	}
	if _, ok := Kernel(Normalized{K: &Spectrum{K: 1}}).(featurer); ok {
		t.Error("Normalized unexpectedly exposes features")
	}
}
