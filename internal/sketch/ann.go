package sketch

import (
	"math"
	"sort"
)

// ANN defaults and bounds for NewIndexANN.
const (
	// DefaultBands is the band count used when a caller enables ANN
	// without choosing one. Sixteen bands of DefaultRows hyperplanes keep
	// recall@10 >= 0.9 on the paper's trace corpora (asserted by the
	// package recall tests) while touching a few percent of the corpus
	// per query.
	DefaultBands = 16
	// DefaultRows is the number of sign-random-projection hyperplanes per
	// band when the caller passes rows <= 0. Two vectors collide in one
	// band with probability (1 - theta/pi)^rows, so rows trades candidate
	// volume (lower rows) against precision (higher rows).
	DefaultRows = 8
	// MaxRows bounds rows so one band key fits a uint64.
	MaxRows = 64
	// maxBands bounds the per-entry signature footprint.
	maxBands = 512

	// planeSalt separates the ANN hyperplane stream from every other
	// seeded hash in this package, so enabling ANN cannot correlate with
	// the sketch buckets derived from the same seed.
	planeSalt = 0xa5b35705b6d5c3ed
)

// annState is the LSH-banded candidate structure a non-flat Index carries:
// per-band signatures (sign random projections, one bit per hyperplane),
// hash buckets from band key to member ids, and int8-quantized copies of
// every vector for the candidate scan. It is guarded by the Index mutex;
// planes are immutable after construction and may be read without it.
type annState struct {
	bands, rows int
	seed        uint64
	planes      [][]uint64         // bands*rows hyperplanes, bit-packed Rademacher rows
	sigs        [][]uint64         // id-indexed band keys; nil = absent
	q8          [][]int8           // id-indexed quantized vectors; nil = absent
	buckets     []map[uint64][]int // per-band: band key -> live member ids
}

// newANNState derives the banded structure for (dim, bands, rows, seed).
// Every hyperplane bit comes from mix64 over the coordinates alone, so two
// states built from equal parameters are identical — there is no stored
// randomness, which is what lets shards and snapshot restores share
// signatures.
func newANNState(dim, bands, rows int, seed uint64) *annState {
	a := &annState{bands: bands, rows: rows, seed: seed}
	words := (dim + 63) / 64
	a.planes = make([][]uint64, bands*rows)
	for p := range a.planes {
		row := make([]uint64, words)
		for w := range row {
			row[w] = mix64(seed ^ planeSalt ^ uint64(p)<<24 ^ uint64(w))
		}
		a.planes[p] = row
	}
	a.buckets = make([]map[uint64][]int, bands)
	for b := range a.buckets {
		a.buckets[b] = make(map[uint64][]int)
	}
	return a
}

// signature computes the band keys of vec: bit r of band b is the sign of
// the dot product with hyperplane b*rows+r, whose +-1 entries are the bits
// of the packed plane row. Pure float64 additions in index order — no FMA,
// no reassociation — so the result is bit-deterministic in (vec, config).
// Zero components are skipped up front: a ±0 term never changes the bits
// of a running sum (and a zero total is non-negative whatever its sign),
// so the keys are identical to the dense accumulation while the cost
// drops to bands*rows*nnz — sketch vectors only populate the dims their
// features hash to, so short strings are sparse.
func (a *annState) signature(vec []float64) []uint64 {
	nz := make([]int32, 0, len(vec))
	for j, v := range vec {
		if v != 0 {
			nz = append(nz, int32(j))
		}
	}
	sig := make([]uint64, a.bands)
	p := 0
	for b := range sig {
		var key uint64
		for r := 0; r < a.rows; r++ {
			plane := a.planes[p]
			p++
			var sum float64
			for _, j := range nz {
				if plane[j>>6]&(1<<(uint(j)&63)) != 0 {
					sum += vec[j]
				} else {
					sum -= vec[j]
				}
			}
			if sum >= 0 {
				key |= 1 << uint(r)
			}
		}
		sig[b] = key
	}
	return sig
}

// quantize maps a unit-norm sketch to int8 at scale 127. The quantized
// copy only ranks candidates — reported scores always come from the
// float64 vectors — so the ~0.4% per-component rounding error costs at
// most a little shortlist recall, never score accuracy.
func quantize(vec []float64) []int8 {
	q := make([]int8, len(vec))
	for i, v := range vec {
		x := math.Round(v * 127)
		if x > 127 {
			x = 127
		} else if x < -127 {
			x = -127
		}
		q[i] = int8(x)
	}
	return q
}

// dotQ8 is the int32 inner product of two quantized vectors. dim <= 4096
// and |component| <= 127 keep the sum far from overflow.
func dotQ8(a, b []int8) int32 {
	var s int32
	for i, v := range a {
		s += int32(v) * int32(b[i])
	}
	return s
}

// NewIndexANN returns an index whose Search generates candidates from LSH
// bands instead of a full scan: vectors sharing a band key with the query
// are scanned (int8 dot products), the best k are rescored with the exact
// float64 sketch dot. bands <= 0 returns a flat index identical to
// NewIndex(dim); rows is clamped to [1, MaxRows] (0 meaning DefaultRows)
// and bands to at most maxBands. seed must match the sketcher seed the
// vectors were built with only by convention — any fixed seed works — but
// two indexes exchange signatures (AddSigned, shard fan-out) only when
// (dim, bands, rows, seed) all match.
//
// Search degrades to the flat scan whenever that is at least as cheap or
// required for exactness: k < 0 (all results), k >= live entries (the
// full-rerank path — keeping ANN engines bit-identical to exact ones
// there), or when the banded pool has fewer than k members.
func NewIndexANN(dim, bands, rows int, seed uint64) *Index {
	if dim <= 0 {
		dim = DefaultDim
	}
	ix := &Index{dim: dim}
	if bands <= 0 {
		return ix
	}
	if bands > maxBands {
		bands = maxBands
	}
	if rows <= 0 {
		rows = DefaultRows
	}
	if rows > MaxRows {
		rows = MaxRows
	}
	ix.ann = newANNState(dim, bands, rows, seed)
	return ix
}

// ANNConfig reports the banding parameters, or enabled=false for a flat
// index (bands and rows are then 0).
func (ix *Index) ANNConfig() (bands, rows int, enabled bool) {
	if ix.ann == nil {
		return 0, 0, false
	}
	return ix.ann.bands, ix.ann.rows, true
}

// Sig returns the stored band signature for id (nil when absent or the
// index is flat). The slice is the index's own storage: read-only for the
// caller. Snapshots persist these so a restore can skip recomputing them.
func (ix *Index) Sig(id int) []uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.ann == nil || id < 0 || id >= len(ix.ann.sigs) {
		return nil
	}
	return ix.ann.sigs[id]
}

// AddSigned is Add with a precomputed band signature, used by snapshot
// restore to skip the signature recomputation. A nil or wrong-width sig
// falls back to computing it; a non-nil sig is trusted to equal
// signature(vec) — callers must only pass signatures produced under an
// identical (dim, bands, rows, seed) configuration.
func (ix *Index) AddSigned(id int, vec []float64, sig []uint64) error {
	if len(vec) != ix.dim {
		return errVecWidth(len(vec), ix.dim)
	}
	if id < 0 {
		return errNegID(id)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.addLocked(id, vec, sig)
}

// addLocked inserts vec (and, for ANN indexes, its signature and
// quantized copy) under the already-held write lock.
func (ix *Index) addLocked(id int, vec []float64, sig []uint64) error {
	for id >= len(ix.vecs) {
		ix.vecs = append(ix.vecs, nil)
	}
	if ix.vecs[id] != nil {
		return errDupID(id)
	}
	ix.vecs[id] = vec
	ix.live++
	if a := ix.ann; a != nil {
		if len(sig) != a.bands {
			sig = a.signature(vec)
		}
		for id >= len(a.sigs) {
			a.sigs = append(a.sigs, nil)
			a.q8 = append(a.q8, nil)
		}
		a.sigs[id] = sig
		a.q8[id] = quantize(vec)
		for b, key := range sig {
			a.buckets[b][key] = append(a.buckets[b][key], id)
		}
	}
	return nil
}

// removeANNLocked drops id from the banded structure (no-op on flat
// indexes); the caller holds the write lock and has already tombstoned the
// vector.
func (ix *Index) removeANNLocked(id int) {
	a := ix.ann
	if a == nil || id >= len(a.sigs) || a.sigs[id] == nil {
		return
	}
	for b, key := range a.sigs[id] {
		ids := a.buckets[b][key]
		for i, v := range ids {
			if v == id {
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				break
			}
		}
		if len(ids) == 0 {
			delete(a.buckets[b], key)
		} else {
			a.buckets[b][key] = ids
		}
	}
	a.sigs[id] = nil
	a.q8[id] = nil
}

// Query is a prepared search input: the float64 sketch plus — when the
// preparing index is banded — its band signature and quantized copy.
// Preparing once and searching many indexes built under the same
// (dim, bands, rows, seed) configuration (the sharded fan-out) amortizes
// the signature cost across shards.
type Query struct {
	// Vec is the raw sketch vector the query was prepared from.
	Vec []float64
	sig []uint64
	q8  []int8
}

// PrepareQuery computes the ANN byproducts of vec for this index's
// configuration. On a flat index (or a width mismatch) the result just
// wraps vec; SearchQuery then runs the flat scan.
func (ix *Index) PrepareQuery(vec []float64) *Query {
	q := &Query{Vec: vec}
	if ix.ann != nil && len(vec) == ix.dim {
		q.sig = ix.ann.signature(vec)
		q.q8 = quantize(vec)
	}
	return q
}

// SearchQuery is Search over a prepared query. A query without ANN
// byproducts (prepared on a flat or differently-configured index) falls
// back to the exact flat scan, which is always a correct superset of the
// banded pool.
func (ix *Index) SearchQuery(q *Query, k, exclude int) []Candidate {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.searchQueryLocked(q, k, exclude)
}

// SelfQuery returns a prepared query backed by the stored vector — and,
// on a banded index, the stored signature and quantized copy — of a live
// id, for searching *other* indexes built under the same configuration
// (the sharded by-id fan-out). No signature work is paid. Returns nil for
// absent or tombstoned ids. The returned query aliases index storage and
// must be treated as read-only.
func (ix *Index) SelfQuery(id int) *Query {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if id < 0 || id >= len(ix.vecs) || ix.vecs[id] == nil {
		return nil
	}
	q := &Query{Vec: ix.vecs[id]}
	if a := ix.ann; a != nil {
		q.sig = a.sigs[id]
		q.q8 = a.q8[id]
	}
	return q
}

func (ix *Index) searchQueryLocked(q *Query, k, exclude int) []Candidate {
	a := ix.ann
	ix.met.Searches.Inc()
	// reachable is the number of entries a scan can return: the flat
	// fallback must kick in exactly when k covers them all, so that
	// full-rerank queries (including by-id queries excluding themselves)
	// stay bit-identical to the flat index.
	reachable := ix.live
	if exclude >= 0 && exclude < len(ix.vecs) && ix.vecs[exclude] != nil {
		reachable--
	}
	if a == nil || q.sig == nil || len(q.sig) != a.bands || k < 0 || k >= reachable {
		ix.met.FlatFallbacks.Inc()
		return ix.searchFlatLocked(q.Vec, k, exclude)
	}

	// Candidate pool: the union of the query's band buckets, deduplicated
	// with a dense seen-bitmap (one byte per id slot — cheap to allocate
	// and clear, and pool membership tests stay O(1)).
	seen := make([]bool, len(ix.vecs))
	pool := make([]int, 0, 4*k)
	for b, key := range q.sig {
		for _, id := range a.buckets[b][key] {
			if !seen[id] && id != exclude {
				seen[id] = true
				pool = append(pool, id)
			}
		}
	}
	ix.met.PoolCandidates.Add(int64(len(pool)))
	if len(pool) < k {
		// The bands found fewer candidates than requested; the flat scan
		// is both necessary for k results and barely more expensive than
		// the pool it would have replaced.
		ix.met.FlatFallbacks.Inc()
		return ix.searchFlatLocked(q.Vec, k, exclude)
	}

	// Rank the pool by quantized dot product (int32 accumulate over int8
	// components: ~8x less memory traffic than the float64 scan), keep the
	// best k, then rescore those with the exact float64 dot so reported
	// scores are bit-identical to the flat scan's.
	type qc struct {
		id int
		s  int32
	}
	scored := make([]qc, len(pool))
	for i, id := range pool {
		scored[i] = qc{id: id, s: dotQ8(q.q8, a.q8[id])}
	}
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].s != scored[b].s {
			return scored[a].s > scored[b].s
		}
		return scored[a].id < scored[b].id
	})
	// Quantization resolves cosine only to a few hundredths, so the true
	// k-th and (k+m)-th candidates can swap places in the int8 ranking.
	// Rescore a margin past k before the float64 cut: the extra dot
	// products are a rounding error next to the pool scan, and they keep
	// boundary candidates from being dropped over an int8 tie.
	rescore := 2*k + 16
	if rescore > len(scored) {
		rescore = len(scored)
	}
	scored = scored[:rescore]
	out := make([]Candidate, len(scored))
	for i, c := range scored {
		out[i] = Candidate{ID: c.id, Score: Dot(q.Vec, ix.vecs[c.id])}
	}
	sortCandidates(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}
