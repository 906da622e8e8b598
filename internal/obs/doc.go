// Package obs is the zero-dependency telemetry registry behind
// iokserve's GET /metrics endpoint.
//
// A Registry owns named metric families — counters, gauges, and
// log-linear latency histograms — and renders them in the Prometheus
// text exposition format. Histograms reuse the HDR bucket geometry of
// internal/hdr, which the load harness (internal/load) records into too,
// so the latencies the server exposes and the latencies the load harness
// records are quantized identically and can be compared bucket for bucket.
//
// Instruments are nil-safe: every method on a nil *Counter, *Gauge, or
// *Histogram is a no-op. Deep layers (store, engine, sketch, shard,
// stream) therefore hold plain Metrics structs whose zero value disables
// telemetry entirely — no registry, no conditionals at call sites, and
// no cost beyond a nil check when observability is off.
package obs
