// Package sketch embeds weighted strings into fixed-width vectors so
// similarity queries can be answered approximately in O(nnz) per corpus
// entry instead of one kernel evaluation each.
//
// # Embedding
//
// The embedding is the classic hashed feature map ("feature hashing" /
// signed random projections, in the spirit of Tabei et al.'s space-
// efficient feature maps for alignment kernels and Wu et al.'s random
// features for global string kernels): every contiguous substring of 1 to
// MaxLen tokens is hashed to one of Dim buckets with a pseudo-random sign,
// and its occurrence weight is accumulated there. The dot product of two
// sketches is then an unbiased estimate of the inner product of these
// window feature vectors, which tracks the Kast kernel's shared-substring
// similarity without reproducing its ordering (Kast's feature set is
// pair-dependent). The estimate is only used to shortlist candidates; the
// engine reranks the shortlist with the exact Kast kernel (see
// engine.SimilarApprox), which restores exact top-k results whenever the
// shortlist covers them.
//
// # Candidate generation
//
// An Index answers a query by scoring every live vector over the query's
// nonzero buckets only — the skipped terms are exact zeros, so each score
// equals Dot bit for bit — and keeping the best k in a TopK heap bounded
// by min(k, live entries). TopK's order, score descending with ties by
// ascending id, is the one every search and rerank returns, so a request
// that covers every entry returns the exact scan's answer.
//
// # Determinism
//
// Everything here is deterministic in (input, Options): the same string
// sketched twice, on any machine, in any corpus, yields bit-identical
// vectors. That is what lets the engine rebuild its sketch index
// bit-identically from a WAL replay, lets snapshots persist raw vector
// bits, and lets every shard of a sharded corpus share one query's
// sketch. FuzzSketchDeterminism and the package recall/equivalence tests
// pin it.
//
// See docs/ARCHITECTURE.md for how the index sits in the query path.
package sketch
