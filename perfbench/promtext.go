package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"iokast/internal/load"
)

// workCounters are the server counters scraped around every timed phase.
// Each counts work, not time, so for a given seed the single-writer
// workloads must reproduce them exactly.
var workCounters = []string{
	"iok_engine_kernel_evals_total",
	"iok_engine_reranked_total",
	"iok_sketch_pool_candidates_total",
	"iok_sketch_searches_total",
	"iok_sketch_flat_fallbacks_total",
	"iok_store_wal_appends_total",
	"iok_store_wal_appended_bytes_total",
	"iok_stream_window_ticks_total",
	"iok_stream_cache_hits_total",
}

// parseFamilies reads a Prometheus text exposition with load.ParseMetrics
// and sums every series of each metric family over its label sets, so that
// per-shard series add up to the corpus total.
func parseFamilies(r io.Reader) (map[string]float64, error) {
	series, err := load.ParseMetrics(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(series))
	for key, v := range series {
		name, _, _ := strings.Cut(key, "{")
		out[name] += v
	}
	return out, nil
}

// counterDelta returns after-before for each named family (missing families
// count as 0: the server registers some lazily).
func counterDelta(before, after map[string]float64, names []string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = after[n] - before[n]
	}
	return out
}

// formatCounts renders counts in a fixed order, for reports and for the
// exact-repeat check.
func formatCounts(c map[string]float64) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, strconv.FormatFloat(c[k], 'f', -1, 64))
	}
	return b.String()
}
