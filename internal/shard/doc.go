// Package shard scales the engine past one write lock and one WAL: a
// Sharded corpus splits the id space across N fully independent
// engine+store pairs behind a single global API that matches
// engine.Engine's. It is the one corpus type iokserve serves, at every
// shard count; one shard is the default. Adopt serves an existing engine
// and store as a one-shard corpus.
//
// # Routing
//
// Every trace id is owned by exactly one shard, chosen by Route — a pure
// seeded hash (the SplitMix64 finalizer) of the id, mod the shard count.
// The mapping depends only on (id, seed, shards), so an id can never move
// between shards; the MANIFEST of a durable directory pins seed and count
// so every reopen routes identically. There is one id space: each shard
// engine stores its traces under their corpus-wide ids
// (engine.Engine.Insert), and the ids routed elsewhere are empty slots in
// it. So the engine's id bound, engine.MaxIDs, bounds the corpus as a
// whole, not each shard: a batch that would cross it is refused before any
// shard inserts a part of it. Batch ingest is split into per-shard
// sub-batches inserted in parallel — one WAL record and one fsync per
// shard.
//
// # Fan-out queries
//
// Normalized similarity k(x,y)/sqrt(k(x,x)k(y,y)) is pairwise, so
// disjoint partitions merge losslessly: a query is embedded and prepared
// exactly once (engine.PrepareTraceQuery, or the owner shard's stored
// state for by-id queries), fanned out to every shard in parallel — the
// owner drops a by-id query's own id before truncating — and the
// per-shard top-k merged by (similarity desc, id asc). Exact queries
// and covering-rerank approximate queries are bit-identical to the
// single-engine answer — same ids, same float64 bits, same order — and
// the approximate path splits one global rerank budget across shards so
// the fleet evaluates about as many kernels as a single engine would.
//
// # Recovery
//
// Shards recover concurrently, and the recovered corpus is their union;
// the next id follows the highest id any shard holds. A kill -9 can tear
// at most the one in-flight batch across shard WALs. The sub-batches that
// committed roll forward. The ids of a lost sub-batch never existed: they
// read as absent, like removed ids, and ids past the highest committed one
// are assigned again. Acknowledged mutations are never lost, and every
// reopen recovers the identical corpus.
//
// See docs/ARCHITECTURE.md for the locking model and the MANIFEST wire
// format.
package shard
