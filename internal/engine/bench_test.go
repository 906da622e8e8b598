package engine

import (
	"fmt"
	"testing"

	"iokast/internal/core"
	"iokast/internal/kernel"
	"iokast/internal/token"
	"iokast/internal/xrand"
)

// benchCorpus builds n random weighted strings of the given token length.
func benchCorpus(n, strLen int) []token.String {
	r := xrand.New(777)
	xs := make([]token.String, n)
	for i := range xs {
		xs[i] = randWeighted(r, strLen)
	}
	return xs
}

// BenchmarkEngineAdd measures the cost of adding the (N+1)-th trace to an
// engine already holding N. The insert pays one kernel evaluation, the
// self-similarity, so the per-op time stays flat in N;
// BenchmarkBatchGramRebuild below is the O(N^2) a batch recompute pays for
// the same arrival.
func BenchmarkEngineAdd(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("corpus=%d", n), func(b *testing.B) {
			xs := benchCorpus(n+1, 40)
			base := xs[:n]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
				for _, x := range base {
					e.Add(x)
				}
				b.StartTimer()
				e.Add(xs[n]) // the measured (N+1)-th arrival
			}
		})
	}
}

// BenchmarkBatchGramRebuild is the from-scratch alternative to
// BenchmarkEngineAdd: recompute kernel.Gram over all N+1 strings when the
// (N+1)-th arrives. Compare ns/op growth: quadratic here, linear above.
func BenchmarkBatchGramRebuild(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("corpus=%d", n), func(b *testing.B) {
			xs := benchCorpus(n+1, 40)
			k := &core.Kast{CutWeight: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.Gram(k, xs)
			}
		})
	}
}

// BenchmarkEngineAddBatch measures ingesting a batch of n traces into an
// empty engine in one AddBatch call. Contrast with
// BenchmarkEngineSequentialAdds: identical kernel work (n self-
// similarities), but one ParallelFor and one commit instead of n. On a
// durable engine (internal/store's benchmarks) the gap widens further: one
// WAL record and one fsync per batch instead of n.
func BenchmarkEngineAddBatch(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			xs := benchCorpus(n, 40)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
				if _, err := e.AddBatch(xs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSequentialAdds is the one-at-a-time alternative to
// BenchmarkEngineAddBatch over the same traces.
func BenchmarkEngineSequentialAdds(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			xs := benchCorpus(n, 40)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
				for _, x := range xs {
					e.Add(x)
				}
			}
		})
	}
}

// BenchmarkEngineSimilar measures an exact top-k by-id query against a
// warm corpus: one kernel evaluation per live entry, computed on demand.
func BenchmarkEngineSimilar(b *testing.B) {
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	for _, x := range benchCorpus(128, 40) {
		e.Add(x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Similar(i%128, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// similarBenchEngine builds a warm engine of n short traces plus one query
// string that is never ingested. Short strings keep the quadratic corpus
// build cheap; the query path under test scales the same way regardless.
func similarBenchEngine(b *testing.B, n int) (*Engine, token.String) {
	b.Helper()
	xs := benchCorpus(n+1, 24)
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	if _, err := e.AddBatch(xs[:n]); err != nil {
		b.Fatal(err)
	}
	return e, xs[n]
}

// BenchmarkSimilarExact measures exact query-by-trace: one Kast evaluation
// against every live corpus entry (SimilarTrace with the rerank covering
// the corpus). This is the O(N * kernel) baseline the sketch index exists
// to beat; compare BenchmarkSimilarSketch at the same N.
func BenchmarkSimilarExact(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("corpus=%d", n), func(b *testing.B) {
			e, q := similarBenchEngine(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.SimilarTrace(q, 10, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimilarSketch measures the approximate path over the same
// corpus and query: an O(N * dim) sketch-index scan plus an exact Kast
// rerank of the default shortlist — per-query kernel work is constant in
// N, so the gap over BenchmarkSimilarExact widens with the corpus.
func BenchmarkSimilarSketch(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("corpus=%d", n), func(b *testing.B) {
			e, q := similarBenchEngine(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.SimilarTrace(q, 10, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
