// Package iokast is the public API of the iokast library, a from-scratch
// reproduction of "A Novel String Representation and Kernel Function for
// the Comparison of I/O Access Patterns" (Torres, Kunkel, Dolz, Ludwig —
// PaCT 2017).
//
// The library turns plain-text I/O traces into weighted token strings via a
// four-level pattern tree with pattern compression (§3.1 of the paper),
// compares the strings with the Kast Spectrum Kernel (§3.2) or baseline
// string kernels, and analyses the resulting similarity matrices with
// Kernel PCA and hierarchical clustering (§4).
//
// Quick start:
//
//	tr, _ := iokast.ParseTraceString("open fh=1\nwrite fh=1 bytes=8\nclose fh=1")
//	s := iokast.Convert(tr, iokast.ConvertOptions{})
//	k := iokast.NewKast(2)
//	similarity := iokast.CosineNormalized(k).Compare(s, other)
//
// See examples/ for end-to-end programs and internal/experiments for the
// paper's full evaluation.
package iokast

import (
	"fmt"
	"io"

	"iokast/internal/cluster"
	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/iogen"
	"iokast/internal/kernel"
	"iokast/internal/kpca"
	"iokast/internal/linalg"
	"iokast/internal/shard"
	"iokast/internal/store"
	"iokast/internal/token"
	"iokast/internal/trace"
)

// Core data types, re-exported from the implementation packages.
type (
	// Trace is a chronological I/O access pattern.
	Trace = trace.Trace
	// Op is one I/O operation in a trace.
	Op = trace.Op
	// Token is a weighted token of the string representation.
	Token = token.Token
	// WeightedString is the paper's string representation.
	WeightedString = token.String
	// ConvertOptions configure trace-to-string conversion (§3.1).
	ConvertOptions = core.Options
	// Kernel is a similarity function over weighted strings.
	Kernel = kernel.Kernel
	// KastKernel is the paper's Kast Spectrum Kernel (§3.2).
	KastKernel = core.Kast
	// BlendedKernel is the Blended Spectrum baseline.
	BlendedKernel = kernel.Blended
	// SpectrumKernel is the k-Spectrum baseline.
	SpectrumKernel = kernel.Spectrum
	// Matrix is a dense matrix (kernel/Gram/distance matrices, KPCA
	// coordinates).
	Matrix = linalg.Matrix
	// Dendrogram is a hierarchical-clustering merge tree.
	Dendrogram = cluster.Dendrogram
	// KPCAResult holds Kernel PCA projections.
	KPCAResult = kpca.Result
	// Dataset is a labelled trace collection.
	Dataset = iogen.Dataset
	// Engine is a stateful similarity corpus under Add/AddBatch/Remove. It
	// caches per-string state only — kernel view, sketch, and k(x, x) — so
	// an insertion pays one kernel evaluation, and queries evaluate
	// pairwise kernel values on demand. The fixed-width sketch per entry
	// (internal/sketch) lets Engine.SimilarApprox and Engine.SimilarTrace
	// answer similarity queries from an index scan plus an exact rerank of
	// a small shortlist — including query-by-trace for strings never
	// ingested.
	Engine = engine.Engine
	// EngineOptions configure NewEngine.
	EngineOptions = engine.Options
	// Neighbor is one result of an Engine top-k similarity query.
	Neighbor = engine.Neighbor
	// Store is the durability sidecar of an Engine: a CRC-checked
	// write-ahead log plus periodic atomic snapshots in a data directory.
	Store = store.Store
	// StoreOptions configure OpenEngine's persistence (snapshot cadence,
	// fsync policy).
	StoreOptions = store.Options
	// StoreStats is a point-in-time view of a Store.
	StoreStats = store.Stats
	// Sharded is a hash-routed multi-shard corpus: N independent
	// Engine+Store pairs behind one id space, with mutations routed to a
	// single shard and similarity queries fanned out to all shards in
	// parallel and merged exactly (bit-identical to a single engine over
	// the same corpus).
	Sharded = shard.Sharded
	// ShardedOptions configure NewSharded / OpenSharded.
	ShardedOptions = shard.Options
)

// Linkage strategies for hierarchical clustering.
const (
	SingleLinkage   = cluster.Single
	CompleteLinkage = cluster.Complete
	AverageLinkage  = cluster.Average
)

// ParseTrace reads a trace in the canonical text format (one operation per
// line; see internal/trace).
func ParseTrace(r io.Reader) (*Trace, error) { return trace.Parse(r) }

// ParseTraceString is ParseTrace over a string.
func ParseTraceString(s string) (*Trace, error) { return trace.ParseString(s) }

// ParseStrace reads a minimal strace-style call log.
func ParseStrace(r io.Reader) (*Trace, error) { return trace.ParseStrace(r) }

// FormatTrace writes a trace in the canonical text format.
func FormatTrace(w io.Writer, t *Trace) error { return trace.Format(w, t) }

// Convert runs the full §3.1 pipeline: negligible-operation filtering,
// optional byte erasure, pattern-tree building, compression, and
// flattening into a weighted string.
func Convert(t *Trace, opt ConvertOptions) WeightedString { return core.Convert(t, opt) }

// ConvertAll converts a slice of traces with shared options.
func ConvertAll(ts []*Trace, opt ConvertOptions) []WeightedString {
	return core.ConvertAll(ts, opt)
}

// ParseWeightedString reads the textual weighted-string form produced by
// WeightedString.Format ("literal:weight" tokens).
func ParseWeightedString(s string) (WeightedString, error) { return token.Parse(s) }

// NewKast returns a Kast Spectrum Kernel with the given cut weight.
func NewKast(cutWeight int) *KastKernel { return &core.Kast{CutWeight: cutWeight} }

// CosineNormalized wraps any kernel with cosine normalisation
// k/sqrt(k(a,a)k(b,b)).
func CosineNormalized(k Kernel) Kernel { return kernel.Normalized{K: k} }

// PaperNormalized wraps a Kast kernel with the paper's Eq. 12
// normalisation (division by the product of the strings' >=cut token
// weights).
func PaperNormalized(k *KastKernel) Kernel { return core.PaperNormalized{K: k} }

// Gram computes the kernel matrix over the examples (parallelised).
func Gram(k Kernel, xs []WeightedString) *Matrix { return kernel.Gram(k, xs) }

// NewEngine returns an empty engine. A nil Kernel in the options means the
// paper's default, NewKast(2). Engine.Add of each string caches its
// per-string representation and self-similarity, and Engine.Gram /
// Engine.NormalizedGram evaluate, on demand over those cached views,
// exactly what the batch pipeline (Gram, PaperSimilarity) would compute
// over the same corpus.
func NewEngine(opt EngineOptions) *Engine { return engine.New(opt) }

// OpenEngine recovers (or initialises) a durable engine from dir: the
// newest readable snapshot is restored, log records after it are replayed,
// and the returned engine persists every further mutation to the store's
// write-ahead log. After a crash or kill, reopening the same directory
// yields a bit-identical engine — no client re-ingestion needed.
// Close the store to checkpoint and detach; the engine stays usable in
// memory afterwards.
func OpenEngine(dir string, eopt EngineOptions, sopt StoreOptions) (*Engine, *Store, error) {
	eopt.Log = nil // the store attaches itself after replay
	return store.Open(dir, func() *engine.Engine { return engine.New(eopt) }, sopt)
}

// NewSharded returns an in-memory sharded corpus: Options.Shards
// independent engines behind one global id space. Mutations touch only the
// shard their id hashes to; Similar, SimilarApprox and SimilarTrace fan out
// to every shard in parallel and merge the per-shard top-k exactly, so
// results are bit-identical to a single engine over the same corpus.
func NewSharded(opt ShardedOptions) (*Sharded, error) { return shard.New(opt) }

// OpenSharded recovers (or initialises) a durable sharded corpus from dir:
// a CRC-guarded MANIFEST pins the shard count, routing seed, and
// kernel/sketch configuration, and each shard owns its own WAL and snapshot
// chain in a subdirectory, recovered concurrently. A manifest that
// disagrees with opt is refused. Close the corpus to checkpoint every
// shard.
func OpenSharded(dir string, opt ShardedOptions) (*Sharded, error) { return shard.Open(dir, opt) }

// PaperSimilarity runs the paper's full §4.1 post-processing for the Kast
// kernel: raw Gram, Eq. 12 normalisation, and PSD repair (negative
// eigenvalues clipped to zero, matrix rebuilt). It returns the repaired
// similarity matrix and the number of clipped eigenvalues.
func PaperSimilarity(xs []WeightedString, cutWeight int) (*Matrix, int, error) {
	raw := kernel.Gram(&core.Kast{CutWeight: cutWeight}, xs)
	norm, err := core.NormalizeGramPaper(raw, xs, cutWeight)
	if err != nil {
		return nil, 0, err
	}
	return kernel.PSDRepair(norm)
}

// CosineSimilarity computes a cosine-normalised, PSD-repaired similarity
// matrix for any kernel — the post-processing used for the baseline
// kernels in the evaluation.
func CosineSimilarity(k Kernel, xs []WeightedString) (*Matrix, int, error) {
	return kernel.PSDRepair(kernel.NormalizeCosine(kernel.Gram(k, xs)))
}

// KernelPCA projects a similarity matrix onto its top principal components
// (feature-space centring included).
func KernelPCA(similarity *Matrix, components int) (*KPCAResult, error) {
	return kpca.Analyze(similarity, kpca.Options{Components: components})
}

// HCluster converts a similarity matrix into the kernel-induced distance
// d = sqrt(k_ii + k_jj - 2k_ij) and runs agglomerative clustering.
func HCluster(similarity *Matrix, linkage cluster.Linkage) (*Dendrogram, error) {
	return cluster.Cluster(kernel.KernelDistance(similarity), linkage)
}

// Purity scores a flat clustering against ground-truth labels.
func Purity(assignments []int, labels []string) (float64, error) {
	return cluster.Purity(assignments, labels)
}

// AdjustedRandIndex scores a flat clustering against ground-truth labels.
func AdjustedRandIndex(assignments []int, labels []string) (float64, error) {
	return cluster.AdjustedRandIndex(assignments, labels)
}

// GeneratePaperDataset builds the 110-example synthetic dataset standing in
// for the paper's IOR/FLASH traces: categories A (Flash I/O, 50), B
// (Random POSIX I/O, 20), C (Normal I/O, 20), D (Random Access I/O, 20),
// deterministically from the seed.
func GeneratePaperDataset(seed uint64) (*Dataset, error) {
	return iogen.Build(iogen.PaperOptions(seed))
}

// GenerateTrace builds one synthetic trace of the given category ("A", "B",
// "C", or "D") deterministically from the seed.
func GenerateTrace(category string, seed uint64) (*Trace, error) {
	cat := iogen.Category(category)
	for _, c := range iogen.Categories {
		if c == cat {
			return iogen.Generate(cat, newRand(seed))
		}
	}
	return nil, fmt.Errorf("iokast: unknown category %q (want A, B, C or D)", category)
}
