package engine

import (
	"iokast/internal/obs"
	"iokast/internal/sketch"
)

// Metrics are the engine's telemetry hooks. The zero value disables
// them: obs instruments are nil-safe, so an unconfigured engine pays a
// nil check per aggregate point and nothing per kernel evaluation.
type Metrics struct {
	// Adds counts committed corpus entries: those of Add, AddBatch and
	// Insert, and so of WAL replay, and those a Restore rebuilds.
	Adds *obs.Counter
	// Removes counts accepted tombstones.
	Removes *obs.Counter
	// KernelEvals counts kernel evaluations — the currency every mutation
	// and rerank spends. Incremented at aggregate points (per row or
	// batch), never inside the parallel hot loop.
	KernelEvals *obs.Counter
	// SharedEvals counts the kernel values among KernelEvals that a Kast
	// row derived by a class dot product instead of an evaluation (see
	// core.Kast.CompareRow); its ratio to KernelEvals is the share of the
	// traffic whose candidates repeat a shape. Incremented once per row.
	SharedEvals *obs.Counter
	// Reranked counts shortlist candidates reranked after an approximate
	// search; Reranked over the sketch index's Searches is the mean
	// shortlist the exact kernel actually pays for.
	Reranked *obs.Counter
	// Index instruments the sketch index's candidate generation.
	Index sketch.IndexMetrics
}

// NewMetrics registers the engine and sketch families on reg. labels
// (e.g. the shard number) distinguish engines in one process; series
// are get-or-create, so engines sharing labels share counters.
func NewMetrics(reg *obs.Registry, labels obs.Labels) Metrics {
	return Metrics{
		Adds:        reg.Counter("iok_engine_adds_total", "Corpus insertions accepted.", labels),
		Removes:     reg.Counter("iok_engine_removes_total", "Corpus removals accepted.", labels),
		KernelEvals: reg.Counter("iok_engine_kernel_evals_total", "Kernel evaluations performed.", labels),
		SharedEvals: reg.Counter("iok_engine_kernel_shared_evals_total", "Kernel values derived by a Kast class dot product instead of an evaluation.", labels),
		Reranked:    reg.Counter("iok_engine_reranked_total", "Shortlist candidates exactly reranked.", labels),
		Index:       sketch.NewIndexMetrics(reg, labels),
	}
}
