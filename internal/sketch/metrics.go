package sketch

import "iokast/internal/obs"

// IndexMetrics are the index's search telemetry hooks. The zero value
// disables them (obs instruments are nil-safe), so uninstrumented
// indexes pay one nil check per search.
type IndexMetrics struct {
	// Searches counts candidate generations, one per Search.
	Searches *obs.Counter
}

// NewIndexMetrics registers the sketch index family on reg.
func NewIndexMetrics(reg *obs.Registry, labels obs.Labels) IndexMetrics {
	return IndexMetrics{
		Searches: reg.Counter("iok_sketch_searches_total", "Sketch-index candidate generations.", labels),
	}
}

// SetMetrics attaches telemetry to the index. Call before serving;
// searches read the hooks under the index lock.
func (ix *Index) SetMetrics(m IndexMetrics) {
	ix.mu.Lock()
	ix.met = m
	ix.mu.Unlock()
}
