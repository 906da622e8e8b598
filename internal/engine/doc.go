// Package engine provides a similarity corpus: a stateful collection of
// weighted strings under single-trace insertion, batch insertion, and
// removal, answering exact and approximate top-k queries with the Kast
// kernel. It runs Kast only (see KastKernel); the baseline kernels serve
// the paper's comparisons through kernel.Gram.
//
// # Per-string state
//
// The paper's batch workflow (kernel.Gram) recomputes all n(n+1)/2 kernel
// values whenever the dataset changes. The engine instead caches, per
// string, only what every query needs: the interned view with prefix
// weights (core.Prepared, which also holds the string), its sketch, and
// its self-similarity k(x, x), the normaliser of every cosine score.
// Adding a trace therefore costs
// one kernel evaluation whatever the corpus size; AddBatch builds a whole
// batch in one bounded parallel fan-out and commits it with one log
// record. Add, AddBatch and Insert share that one commit path: Insert
// takes caller-assigned increasing ids (a shard engine stores corpus-wide
// ids), and the ids it skips are empty slots, like removed ones. Ids stop
// below MaxIDs, because the entries and the sketch index are indexed by
// id: an insert past it is refused with ErrIDSpaceFull. No pairwise value is
// stored: queries compute the kernel against their candidates on demand,
// and Gram, NormalizedGram and GramAt evaluate the matrix on demand over
// the cached views.
//
// Results are identical to a from-scratch kernel.Gram over the same
// strings: both paths evaluate the same kernel on the same
// representations, every on-demand pair puts the lower id first (the
// argument order of kernel.Gram), and Kast accumulates integer-valued
// products in float64, which is exact (and thus order-independent) far
// beyond the magnitudes real traces produce. Near weights of 2^40 it is
// not, and the argument order is what keeps answers equal there.
//
// # Query paths
//
// SimilarTracePrepared is the one query path. Similar and SimilarApprox
// prepare a by-id query from stored state (PrepareStoredQuery) and drop
// the id itself before truncating; SimilarTrace prepares a query trace
// ephemerally against the corpus interner, so read-only traffic never
// grows engine memory. The exact path computes the kernel against every
// live entry; the approximate path shortlists from the internal sketch
// index (a scan of every live sketch, see package sketch) and reranks the
// shortlist exactly. A rerank covering the corpus returns the exact answer
// bit for bit. Candidates are picked under the read lock and evaluated
// after it is released, and only the best k are kept, in sketch.TopK's
// heap.
//
// A row of candidates is ordered by pair orientation and shape
// (core.Prepared.Shape) and cut into one chunk per worker, each one
// core.Kast.CompareRow call: candidates of a shape share a match table,
// and most values of a repeated shape are an integer dot product over the
// candidate's weights, bit-identical to an evaluation. A candidate of a
// unique shape costs one evaluation. Metrics.SharedEvals counts the
// derived values. PrepareTraceQuery/PrepareStoredQuery let callers (the
// sharded fan-out in particular) embed a query exactly once and share the
// prepared sketch and self-similarity across engines.
//
// # Persistence
//
// A snapshot holds the live ids with their canonical strings, the
// sequence number and the next id, under one CRC; nothing derived is
// written. Restore commits the strings through the path Insert and WAL
// replay share, so every entry's sketch and self-similarity are rebuilt
// from its string, bit-identical to the engine that wrote the snapshot,
// under the restoring engine's sketch configuration. Snapshots of versions
// 3 and 4, which also carried sketch vectors, self-similarities or a Gram
// triangle, are restored from their strings alone. Package store adds the
// write-ahead log and snapshot lifecycle around this.
//
// See docs/ARCHITECTURE.md for the data flow, locking model, and the
// snapshot wire format.
package engine
