package iokast

// Benchmark harness: one benchmark per paper figure/claim (experiment
// index E1-E8 in DESIGN.md), plus micro-benchmarks for every pipeline
// stage. Absolute times are hardware-specific; the *shapes* the paper
// reports — notably E7's "the smaller the cut weight the most expensive
// the computation became" — are what these regenerate. bench_output.txt
// records a full run.

import (
	"fmt"
	"sync"
	"testing"

	"iokast/internal/cluster"
	"iokast/internal/core"
	"iokast/internal/experiments"
	"iokast/internal/iogen"
	"iokast/internal/kernel"
	"iokast/internal/kpca"
	"iokast/internal/token"
	"iokast/internal/trace"
	"iokast/internal/xrand"
)

var (
	benchOnce    sync.Once
	benchDataset *iogen.Dataset
	benchBytes   []token.String
	benchNoBytes []token.String
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := iogen.Build(iogen.PaperOptions(experiments.DefaultSeed))
		if err != nil {
			panic(err)
		}
		benchDataset = ds
		benchBytes = core.ConvertAll(ds.Traces, core.Options{})
		benchNoBytes = core.ConvertAll(ds.Traces, core.Options{IgnoreBytes: true})
	})
}

// kastSimilarity runs the paper's full post-processing once.
func kastSimilarity(b *testing.B, xs []token.String, cut int) *Matrix {
	b.Helper()
	raw := kernel.Gram(&core.Kast{CutWeight: cut}, xs)
	norm, err := core.NormalizeGramPaper(raw, xs, cut)
	if err != nil {
		b.Fatal(err)
	}
	rep, _, err := kernel.PSDRepair(norm)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkE1WorkedExample times the kernel on the paper's §3.2 example
// (Figs. 3-5) and asserts its value each iteration.
func BenchmarkE1WorkedExample(b *testing.B) {
	x, y := experiments.WorkedExampleStrings()
	k := &core.Kast{CutWeight: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := k.Compare(x, y); got != 1018 {
			b.Fatalf("kernel drifted: %v", got)
		}
	}
}

// BenchmarkE2Fig6KastKPCA regenerates Fig. 6: Kast similarity (bytes, cut
// 2) plus Kernel PCA over the 110-example dataset.
func BenchmarkE2Fig6KastKPCA(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := kastSimilarity(b, benchBytes, 2)
		if _, err := kpca.Analyze(sim, kpca.Options{Components: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3Fig7KastHC regenerates Fig. 7: the same similarity plus
// single-linkage clustering, asserting the paper grouping each iteration.
func BenchmarkE3Fig7KastHC(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := kastSimilarity(b, benchBytes, 2)
		dg, err := cluster.Cluster(kernel.KernelDistance(sim), cluster.Single)
		if err != nil {
			b.Fatal(err)
		}
		if !cluster.GroupsExactlyMatch(dg.Cut(3), benchDataset.Labels, experiments.PaperGroups) {
			b.Fatal("clustering drifted from the paper grouping")
		}
	}
}

// BenchmarkE4Fig8BlendedKPCA regenerates Fig. 8 with the Blended Spectrum
// baseline.
func BenchmarkE4Fig8BlendedKPCA(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw := kernel.Gram(experiments.BlendedBaseline(), benchBytes)
		rep, _, err := kernel.PSDRepair(kernel.NormalizeCosine(raw))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := kpca.Analyze(rep, kpca.Options{Components: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Fig9BlendedHC regenerates Fig. 9.
func BenchmarkE5Fig9BlendedHC(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw := kernel.Gram(experiments.BlendedBaseline(), benchBytes)
		rep, _, err := kernel.PSDRepair(kernel.NormalizeCosine(raw))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Cluster(kernel.KernelDistance(rep), cluster.Single); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6NoByteSweep regenerates the byte-free cut-weight sweep at
// three representative points of the paper's {2^1..2^10} range.
func BenchmarkE6NoByteSweep(b *testing.B) {
	benchSetup(b)
	for _, cw := range []int{2, 32, 1024} {
		b.Run(fmt.Sprintf("cut=%d", cw), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim := kastSimilarity(b, benchNoBytes, cw)
				if _, err := cluster.Cluster(kernel.KernelDistance(sim), cluster.Single); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7CutWeightCost regenerates the §4.2 cost claim: Gram
// computation time must grow as the cut weight shrinks.
func BenchmarkE7CutWeightCost(b *testing.B) {
	benchSetup(b)
	for _, cw := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("cut=%d", cw), func(b *testing.B) {
			k := &core.Kast{CutWeight: cw}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernel.Gram(k, benchBytes)
			}
		})
	}
}

// BenchmarkE8KSpectrum regenerates the k-Spectrum baseline comparison.
func BenchmarkE8KSpectrum(b *testing.B) {
	benchSetup(b)
	for _, k := range []int{2, 3, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sp := &kernel.Spectrum{K: k, Mode: kernel.Count, CutWeight: 2}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				raw := kernel.Gram(sp, benchBytes)
				rep, _, err := kernel.PSDRepair(kernel.NormalizeCosine(raw))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cluster.Cluster(kernel.KernelDistance(rep), cluster.Single); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Pipeline micro-benchmarks ---

// BenchmarkConvertTrace times the full trace-to-string conversion per
// category (parse is excluded; traces are pre-built).
func BenchmarkConvertTrace(b *testing.B) {
	for _, cat := range iogen.Categories {
		b.Run(string(cat), func(b *testing.B) {
			tr, err := iogen.Generate(cat, xrand.New(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Convert(tr, core.Options{})
			}
		})
	}
}

// BenchmarkTraceParse times the canonical text parser.
func BenchmarkTraceParse(b *testing.B) {
	tr, err := iogen.Generate(iogen.CatRandomPOSIX, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	text := trace.FormatString(tr)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ParseString(text); err != nil {
			b.Fatal(err)
		}
	}
}

// workloadBodies returns the 32 load bodies the front-half benchmarks
// convert per op, and their total size.
func workloadBodies() ([]string, int) {
	g := iogen.NewBodyGen(1, nil)
	bodies := make([]string, 32)
	total := 0
	for i := range bodies {
		bodies[i], _ = g.Next()
		total += len(bodies[i])
	}
	return bodies, total
}

// BenchmarkParseConvertWorkload times ParseString plus Convert, the
// two-step front half, over the request mix the load generator sends
// (iogen.LoadCategories bodies). One op is the whole mix, so a fixed
// -benchtime=Nx run covers every category.
func BenchmarkParseConvertWorkload(b *testing.B) {
	bodies, total := workloadBodies()
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			tr, err := trace.ParseString(body)
			if err != nil {
				b.Fatal(err)
			}
			core.Convert(tr, core.Options{})
		}
	}
}

// BenchmarkConvertTextWorkload times ConvertText, the one-pass front half
// of every ingest and trace query the server answers, over the same bodies
// as BenchmarkParseConvertWorkload.
func BenchmarkConvertTextWorkload(b *testing.B) {
	bodies, total := workloadBodies()
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			if _, _, err := core.ConvertText(body, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// randomTokens builds a synthetic weighted string over a small alphabet.
func randomTokens(r *xrand.Rand, n int) token.String {
	s := make(token.String, n)
	for i := range s {
		s[i] = token.Token{
			Literal: fmt.Sprintf("op%d", r.Intn(8)),
			Weight:  r.IntRange(1, 50),
		}
	}
	return s
}

// BenchmarkKastPair times a single kernel evaluation across string
// lengths (the kernel is quadratic in the compressed string length).
func BenchmarkKastPair(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			r := xrand.New(uint64(n))
			x := randomTokens(r, n)
			y := randomTokens(r, n)
			k := &core.Kast{CutWeight: 2}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.Compare(x, y)
			}
		})
	}
}

// BenchmarkKastCompare is the flat-named single-pair kernel benchmark the
// CI regression gate tracks (length 64, the middle of BenchmarkKastPair's
// range): one Kast evaluation end to end, per-pair preprocessing included.
func BenchmarkKastCompare(b *testing.B) {
	r := xrand.New(64)
	x := randomTokens(r, 64)
	y := randomTokens(r, 64)
	k := &core.Kast{CutWeight: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Compare(x, y)
	}
}

// BenchmarkKastComparePrepared times one Kast evaluation the way the
// server pays for it: ComparePrepared over views prepared once through a
// shared Interner, on pairs of iogen.LoadCategories traces converted with
// core.Convert (the request body mix, 4–30 tokens per string).
func BenchmarkKastComparePrepared(b *testing.B) {
	const nTraces, nPairs = 256, 1024
	r := xrand.New(1)
	in := core.NewInterner()
	preps := make([]*core.Prepared, nTraces)
	for i := range preps {
		tr, err := iogen.GenerateExtended(iogen.LoadCategories[i%len(iogen.LoadCategories)], r)
		if err != nil {
			b.Fatal(err)
		}
		preps[i] = in.Prepare(core.Convert(tr, core.Options{}))
	}
	pairs := make([][2]*core.Prepared, nPairs)
	for i := range pairs {
		pairs[i] = [2]*core.Prepared{preps[r.Intn(nTraces)], preps[r.Intn(nTraces)]}
	}
	k := &core.Kast{CutWeight: 2}
	for _, p := range pairs { // size the pooled working memory
		k.ComparePrepared(p[0], p[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%nPairs]
		kastSink = k.ComparePrepared(p[0], p[1])
	}
}

// kastSink keeps benchmarked kernel values live.
var kastSink float64

// BenchmarkNaiveKastPair is the reference implementation at a size where
// it is still usable; contrast with BenchmarkKastPair/len=16.
func BenchmarkNaiveKastPair(b *testing.B) {
	r := xrand.New(16)
	x := randomTokens(r, 16)
	y := randomTokens(r, 16)
	k := &core.NaiveKast{CutWeight: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Compare(x, y)
	}
}

// BenchmarkGram110 times the parallel Gram computation on the evaluation
// dataset.
func BenchmarkGram110(b *testing.B) {
	benchSetup(b)
	k := &core.Kast{CutWeight: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kernel.Gram(k, benchBytes)
	}
}

// BenchmarkEigen110 times the Jacobi eigendecomposition used by both PSD
// repair and KPCA.
func BenchmarkEigen110(b *testing.B) {
	benchSetup(b)
	raw := kernel.Gram(&core.Kast{CutWeight: 2}, benchBytes)
	norm, err := core.NormalizeGramPaper(raw, benchBytes, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := kernel.PSDRepair(norm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHCluster110 times single-linkage clustering on the evaluation
// dataset.
func BenchmarkHCluster110(b *testing.B) {
	benchSetup(b)
	sim := kastSimilarity(b, benchBytes, 2)
	d := kernel.KernelDistance(sim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Cluster(d, cluster.Single); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetBuild times synthetic dataset generation.
func BenchmarkDatasetBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := iogen.Build(iogen.PaperOptions(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
