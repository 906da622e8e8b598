// Package sketch embeds weighted strings into fixed-width vectors so
// similarity queries can be answered approximately in O(dim) per corpus
// entry — or, with the LSH-banded index, in time proportional to a small
// candidate pool — instead of one kernel evaluation each.
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
// A flat Index (NewIndex) answers a query by scanning every live vector.
// NewIndexANN adds LSH-banded candidate generation: each vector carries a
// band signature — bands hash keys of rows sign-random-projection bits
// each — and a query probes one hash bucket per band, unions the members,
// ranks the pool with an int8-quantized dot product, float64-rescores the
// leaders, and returns the top k. Two vectors at angle theta collide in a
// band with probability (1 - theta/pi)^rows, so the pool concentrates on
// near neighbours and candidate generation becomes sublinear in the corpus
// for clustered data. Whenever the request already covers every reachable
// entry (or the index is flat, or a prepared query carries no signature)
// the search falls back to the exact scan, preserving the contract that a
// covering rerank is bit-identical to the exact path.
//
// # Determinism
//
// Everything here is deterministic in (input, Options): the same string
// sketched twice, on any machine, in any corpus, yields bit-identical
// vectors, and band signatures depend only on (vector, bands, rows, seed)
// — the hyperplanes are derived by counter-mode hashing, never stored.
// That is what lets the engine rebuild its sketch index bit-identically
// from a WAL replay, lets snapshots persist raw vector and signature bits,
// and lets every shard of a sharded corpus share one query's signature.
// FuzzANNSignature and the package recall/equivalence tests pin all of it.
//
// See docs/ARCHITECTURE.md for how the index sits in the query path and
// the on-disk signature block format.
package sketch
