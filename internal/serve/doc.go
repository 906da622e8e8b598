// Package serve implements the iokserve HTTP surface as an importable
// handler. cmd/iokserve wires flags, durability, and signal handling
// around it; tests and the load harness (cmd/iokload) mount the same
// handler on in-process listeners, so load tests exercise exactly the
// code the binary ships.
//
// The handler is stateless: every endpoint is a thin translation layer
// over one corpus type, shard.Sharded, at any shard count (NewSharded; New
// adopts one existing engine and its optional store as a one-shard corpus),
// and an optional classify.Registry for labels and classification. Ingest
// endpoints (POST /traces, POST /traces/batch, DELETE /traces/{id}) return
// success only after the mutation is durable when a data directory is
// configured; one that did not reach the WAL answers 500. Query endpoints
// (GET/POST /similar, POST /classify) expose the exact and approximate
// similarity paths, including the rerank dial that trades kernel
// evaluations for recall — rerank >= corpus size is bit-identical to the
// exact answer at any shard count.
//
// See docs/ARCHITECTURE.md for the endpoint-to-package data flow and the
// README for the HTTP API reference.
package serve
