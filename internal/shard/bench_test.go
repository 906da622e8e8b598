package shard

import (
	"fmt"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/iogen"
	"iokast/internal/token"
	"iokast/internal/xrand"
)

// benchStrings builds n deterministic synthetic weighted strings, small
// enough (6–14 tokens) that an N=1024 corpus is benchable: the point of
// these benchmarks is how pair work scales with the shard count, not the
// per-pair kernel cost (BenchmarkKastCompare measures that on real-sized
// traces).
func benchStrings(n int) []token.String {
	vocab := []string{"read[4096]", "read[512]", "write[4096]", "write[64]", "lseek[0]", "open[0]", "close[0]", "fsync[0]"}
	r := xrand.New(0xb0b)
	xs := make([]token.String, n)
	for i := range xs {
		m := r.IntRange(6, 14)
		s := token.String{{Literal: token.LitRoot, Weight: 1}}
		for j := 0; j < m; j++ {
			s = append(s, token.Token{Literal: vocab[r.Intn(len(vocab))], Weight: r.IntRange(1, 4)})
		}
		xs[i] = s
	}
	return xs
}

func benchEngineOptions() engine.Options {
	return engine.Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: -1}
}

// BenchmarkShardedAddBatch ingests N=1024 strings in one batch, single
// engine vs 4 shards. Every trace pays one kernel evaluation, its self-
// similarity, either way; the shards apply their sub-batches in parallel.
func BenchmarkShardedAddBatch(b *testing.B) {
	xs := benchStrings(1024)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.New(benchEngineOptions())
			if _, err := eng.AddBatch(xs); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, shards := range []int{4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sh, err := New(Options{Shards: shards, Engine: benchEngineOptions()})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sh.AddBatch(xs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchQueryOptions is the production query configuration: sketching on
// at the default width — what cmd/iokserve runs with.
func benchQueryOptions() engine.Options {
	return engine.Options{Kernel: &core.Kast{CutWeight: 2}}
}

// BenchmarkShardedSimilar answers top-10 query-by-trace requests on the
// production approximate path (sketch scan + default exact rerank — what
// cmd/iokserve serves) over an N=1024 corpus, single engine vs 4 shards.
// The query is embedded once and the prepared sketch and self-similarity
// are shared across the fan-out; the
// rerank budget is global, so the shards collectively evaluate about as
// many kernels as the single engine — the fan-out costs coordination, not
// duplicated work.
func BenchmarkShardedSimilar(b *testing.B) {
	const n = 1024
	xs := benchStrings(n)
	queries := benchStrings(n + 64)[n:]
	b.Run("single", func(b *testing.B) {
		eng := engine.New(benchQueryOptions())
		if _, err := eng.AddBatch(xs); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SimilarTrace(queries[i%len(queries)], 10, -1); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, shards := range []int{4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sh, err := New(Options{Shards: shards, Engine: benchQueryOptions()})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sh.AddBatch(xs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.SimilarTrace(queries[i%len(queries)], 10, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedSimilarByID answers top-10 by-id approximate queries
// (?approx=1) over the same corpus. Every engine shortlists from the
// owner's stored sketch and reranks its shortlist with
// on-demand kernel values; the owner drops the query's own id. The rerank
// budget is global, so the shards evaluate about as many kernels as the
// single engine.
func BenchmarkShardedSimilarByID(b *testing.B) {
	const n = 1024
	xs := benchStrings(n)
	b.Run("single", func(b *testing.B) {
		eng := engine.New(benchQueryOptions())
		if _, err := eng.AddBatch(xs); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SimilarApprox(i%n, 10, -1); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, shards := range []int{4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sh, err := New(Options{Shards: shards, Engine: benchQueryOptions()})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sh.AddBatch(xs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.SimilarApprox(i%n, 10, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedSimilarExact answers exact top-10 by-id queries over the
// same corpus: one kernel evaluation per live entry, fanned out across the
// shards. It is deliberately not in the CI bench gate;
// BenchmarkShardedSimilarByID and BenchmarkShardedSimilar above cover the
// production query paths.
func BenchmarkShardedSimilarExact(b *testing.B) {
	const n = 1024
	xs := benchStrings(n)
	b.Run("single", func(b *testing.B) {
		eng := engine.New(benchQueryOptions())
		if _, err := eng.AddBatch(xs); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Similar(i%n, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, shards := range []int{4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sh, err := New(Options{Shards: shards, Engine: benchQueryOptions()})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sh.AddBatch(xs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.Similar(i%n, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedSimilarExactWorkload answers exact top-5 by-id queries
// for ids 0–255 over 512 iogen.LoadCategories traces on 4 shards: the
// GET /similar?id= request of perfbench's sharded-mixed workload. Those
// traces repeat a dozen literal sequences, so Kast rows share match tables
// and derive most values by a class dot product; the random strings of
// BenchmarkShardedSimilarExact repeat none.
func BenchmarkShardedSimilarExactWorkload(b *testing.B) {
	const n, queries = 512, 256
	r := xrand.New(1)
	xs := make([]token.String, n)
	for i := range xs {
		tr, err := iogen.GenerateExtended(iogen.LoadCategories[i%len(iogen.LoadCategories)], r)
		if err != nil {
			b.Fatal(err)
		}
		xs[i] = core.Convert(tr, core.Options{})
	}
	sh, err := New(Options{Shards: 4, Engine: benchQueryOptions()})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sh.AddBatch(xs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.Similar(i%queries, 5); err != nil {
			b.Fatal(err)
		}
	}
}
