// Package shard scales the engine horizontally: a Sharded
// supervisor owns N independent engine+store pairs, routes every mutation
// to exactly one shard by a deterministic seeded hash of the trace's global
// id, and answers similarity queries by fanning the query out to all shards
// in parallel and exactly merging the per-shard top-k.
//
// Sharding is lossless for similarity queries. The engine's scores are the
// normalized kernel values k(x,y)/sqrt(k(x,x)k(y,y)), which are computable
// pairwise — no term depends on any third corpus entry. Over disjoint
// corpus partitions, the global top-k is therefore exactly the merge of the
// per-shard top-k lists: every member of the global top-k is in the top-k
// of its own shard, so fetching k candidates from each shard and re-sorting
// by (score, id) reproduces the single-engine answer bit for bit (the
// Kast and feature-map kernels accumulate integer-valued products in
// float64, which is exact, so a score computed in any shard's interner
// equals the score the single engine computes).
//
// What the supervisor buys: each shard has its own write lock, WAL and
// snapshot chain, a query's kernel work is spread over the shards in
// parallel, and recovery opens all shards concurrently. Batches across
// several shards are still serialised by one supervisor lock
// (Sharded.ingest), which fixes the global id order; a batch's per-shard
// sub-batches then commit in parallel. Removes and queries take no
// supervisor lock, and neither does a one-shard corpus's ingest, which
// its engine orders alone.
package shard

// Route maps a global trace id to its owner shard, deterministically in
// (id, seed, n). The mapping is pure — no state, no corpus — so it can be
// recomputed forever: an id never moves between shards, across restarts or
// across processes, as long as (seed, n) match, which the MANIFEST pins for
// a given data directory.
//
// The hash is the SplitMix64 finalizer (the same mixer xrand and sketch
// use) over the id keyed by a pre-mixed seed. Its output stream for a given
// input is identical across platforms and Go versions; TestRouteGolden pins
// reference values so the function can never change silently under an
// existing data directory.
func Route(id int, seed uint64, n int) int {
	if n <= 1 {
		return 0
	}
	z := uint64(id) ^ mix64(seed^0x9e3779b97f4a7c15)
	return int(mix64(z) % uint64(n))
}

// mix64 is the SplitMix64 finalizer: a bijective 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
