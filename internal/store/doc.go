// Package store persists the engine: an append-only,
// CRC-checked write-ahead log of canonicalized traces plus periodic
// snapshots of the corpus strings, committed with atomic renames. A killed
// process restarts into a bit-identical engine by restoring the newest
// snapshot and replaying only the log records after it; both rebuild each
// trace's sketch and self-similarity from its string. When a snapshot
// cannot be restored, recovery falls back to the next older one, then to
// replay alone, and a failed recovery reports why each candidate was
// refused.
//
// # Durability contract
//
// A mutation is durable once the engine call that performed it returns —
// the log record is appended, flushed, and (unless Options.NoSync) fsynced
// under the engine's write lock, before the in-memory state changes. A
// crash may preserve a mutation that was never acknowledged (record
// written, response lost), but never loses one that was. Batched ingestion
// (Engine.AddBatch) pays one record and one fsync per batch, which is the
// point: per-trace fsync is the dominant cost of durable single-trace
// Adds.
//
// # File layout
//
// A data directory holds snap-<seq>.iok snapshots and wal-<seq>.log
// segments; <seq> is the mutation count at which the file begins, so
// segments tile the history contiguously and recovery replays exactly the
// records a snapshot has not yet captured; a segment that does not start
// where the one before it ended fails recovery. A torn record at the tail
// of the last segment — the normal result of kill -9 mid-write — cleanly
// ends replay at the last intact mutation. Writes that must be atomic as a
// whole (snapshots; the shard MANIFEST and classify LABELS files reuse
// AtomicWriteFile) go to a temp file, fsync, then rename.
//
// See docs/ARCHITECTURE.md for the record framing and the snapshot wire
// format, and package shard for how one store per shard composes into a
// sharded data directory.
package store
