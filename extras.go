package iokast

import (
	"iokast/internal/classify"
	"iokast/internal/cluster"
	"iokast/internal/core"
	"iokast/internal/iofs"
	"iokast/internal/kernel"
	"iokast/internal/kpca"
	"iokast/internal/trace"
)

// Additional public surface: trace characterisation, pattern
// classification, out-of-sample KPCA projection, clustering quality, and
// the recording filesystem for capturing live workloads.

type (
	// TraceStats summarises a trace along the paper's §2.1 axes.
	TraceStats = trace.Stats
	// Classifier labels new patterns against a labelled reference set.
	Classifier = classify.Classifier
	// ClassifierMatch is one scored reference.
	ClassifierMatch = classify.Match
	// OnlineClassifier labels traces against a live corpus (Engine or
	// Sharded) by similarity-weighted k-NN vote, with labels held in a
	// LabelRegistry — the serving-path form of Classifier.
	OnlineClassifier = classify.Online
	// ClassifyCorpus is the similarity surface an OnlineClassifier needs;
	// both Engine and Sharded satisfy it.
	ClassifyCorpus = classify.Corpus
	// LabelRegistry assigns labels to corpus ids, optionally persisted as
	// an atomically committed labels file beside the corpus data.
	LabelRegistry = classify.Registry
	// ClassifyResult is one online classification: winning label,
	// confidence, per-label votes, and the scored neighbours.
	ClassifyResult = classify.Result
	// ClassifyVote is one label's aggregated ballot.
	ClassifyVote = classify.Vote
	// KPCAModel projects new examples into a fitted KPCA space.
	KPCAModel = kpca.StringModel
	// RecordingFS is an in-memory POSIX-like filesystem that records
	// every call as a trace operation.
	RecordingFS = iofs.FS
	// RecordedFile is an open handle on a RecordingFS.
	RecordedFile = iofs.File
	// SubsequenceKernel is the gap-weighted subsequence kernel baseline.
	SubsequenceKernel = kernel.Subsequence
)

// ComputeStats derives the trace characterisation summary.
func ComputeStats(t *Trace) TraceStats { return trace.ComputeStats(t) }

// NewRecordingFS returns an empty recording filesystem; run a workload
// against it and feed fs.Trace() to Convert.
func NewRecordingFS() *RecordingFS { return iofs.New() }

// NewClassifier builds a k-nearest-neighbour pattern classifier over
// labelled weighted strings using the given Kast kernel (nil means
// NewKast(2); similarities are cosine-normalised internally). Any other
// kernel is refused with an error.
func NewClassifier(k Kernel, refs []WeightedString, labels []string, neighbours int) (*Classifier, error) {
	return classify.New(k, refs, labels, neighbours)
}

// NewOnlineClassifier wires an online classifier over a live corpus — an
// Engine or a Sharded — and a label registry. Classify runs the corpus's
// SimilarTrace (sketch shortlist + exact rerank where enabled, fanned out
// across shards in parallel) and aggregates neighbour votes weighted by
// normalised similarity; with an exact rerank the result is bit-identical
// at any shard count.
func NewOnlineClassifier(c ClassifyCorpus, reg *LabelRegistry) *OnlineClassifier {
	return classify.NewOnline(c, reg)
}

// NewLabelRegistry returns an empty in-memory label registry.
func NewLabelRegistry() *LabelRegistry { return classify.NewRegistry() }

// OpenLabelRegistry loads (or initialises) a durable label registry backed
// by the file at path. Every mutation rewrites the CRC-framed table with an
// atomic temp+rename commit, so a kill at any point preserves the last
// complete assignment.
func OpenLabelRegistry(path string) (*LabelRegistry, error) {
	return classify.OpenRegistry(path)
}

// ClassifyTraces is a convenience wrapper: convert labelled reference
// traces, build a Kast classifier, and classify the query trace. It
// returns the winning label and the scored matches.
func ClassifyTraces(refs []*Trace, labels []string, query *Trace, cutWeight, neighbours int, opt ConvertOptions) (string, []ClassifierMatch, error) {
	c, err := classify.New(&core.Kast{CutWeight: cutWeight}, core.ConvertAll(refs, opt), labels, neighbours)
	if err != nil {
		return "", nil, err
	}
	return c.Classify(core.Convert(query, opt))
}

// FitKPCA fits a Kernel PCA model on training strings so new strings can
// be projected into the same space with Project.
func FitKPCA(k Kernel, train []WeightedString, components int) (*KPCAModel, error) {
	return kpca.FitStrings(k, train, kpca.Options{Components: components})
}

// Silhouette scores a flat clustering on a distance matrix (mean
// silhouette coefficient, -1..1).
func Silhouette(distances *Matrix, assignments []int) (float64, error) {
	return cluster.Silhouette(distances, assignments)
}

// CopheneticCorrelation measures how faithfully a dendrogram preserves the
// distances it was built from (1 = perfect ultrametric fit).
func CopheneticCorrelation(distances *Matrix, dg *Dendrogram) (float64, error) {
	return cluster.CopheneticCorrelation(distances, dg)
}

// KernelDistance converts a similarity matrix into the kernel-induced
// distance matrix d_ij = sqrt(max(0, k_ii + k_jj - 2 k_ij)).
func KernelDistance(similarity *Matrix) *Matrix {
	return kernel.KernelDistance(similarity)
}
