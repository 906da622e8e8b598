package sketch

import (
	"fmt"
	"math"
	"sync"
)

// Index is an in-memory sketch index: one fixed-width vector per integer
// id. Search scans every live vector, so it is exact with respect to the
// sketch scores — the only approximation in the pipeline stays the sketch
// itself.
//
// All methods are safe for concurrent use.
type Index struct {
	mu   sync.RWMutex
	dim  int
	vecs [][]float64 // id-indexed; nil = never added or removed
	live int
	met  IndexMetrics // search telemetry; zero value = disabled
}

// Candidate is one search result: an id and its sketch score (the cosine
// of the unit sketches).
type Candidate struct {
	ID    int
	Score float64
}

// NewIndex returns an empty index for vectors of the given width.
func NewIndex(dim int) *Index {
	if dim <= 0 {
		dim = DefaultDim
	}
	return &Index{dim: dim}
}

// Add stores vec under id, growing the id space as needed. The slice is
// retained, not copied; callers must not mutate it afterwards. Replacing a
// live id is an error — engine ids are never reused.
func (ix *Index) Add(id int, vec []float64) error {
	if len(vec) != ix.dim {
		return fmt.Errorf("sketch: vector of width %d in index of width %d", len(vec), ix.dim)
	}
	if id < 0 {
		return fmt.Errorf("sketch: negative id %d", id)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for id >= len(ix.vecs) {
		ix.vecs = append(ix.vecs, nil)
	}
	if ix.vecs[id] != nil {
		return fmt.Errorf("sketch: id %d already indexed", id)
	}
	ix.vecs[id] = vec
	ix.live++
	return nil
}

// Remove tombstones id. Removing an absent id is a no-op returning false.
func (ix *Index) Remove(id int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if id < 0 || id >= len(ix.vecs) || ix.vecs[id] == nil {
		return false
	}
	ix.vecs[id] = nil
	ix.live--
	return true
}

// Vec returns the stored vector for id, or nil. The slice is the index's
// own storage: read-only for the caller.
func (ix *Index) Vec(id int) []float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if id < 0 || id >= len(ix.vecs) {
		return nil
	}
	return ix.vecs[id]
}

// Search returns the k highest-scoring ids by dot product with q (the
// sketch cosine, on unit vectors), in decreasing score order with ties
// broken by ascending id. k < 0 returns all live entries. exclude (if
// >= 0) is skipped — callers pass the query's own id.
//
// Every live vector is scored over q's nonzero coordinates only. The terms
// skipped are exact zeros (the vectors are finite), and adding a zero
// never changes a sum that starts at +0, so each score equals Dot(q, vec)
// bit for bit. Sketches of short strings fill a fraction of their
// buckets, so this is a fraction of the dense scan's work. Four vectors
// are scored per pass: each sum still adds its terms in index order, and
// the four chains of additions overlap instead of waiting on each other.
func (ix *Index) Search(q []float64, k, exclude int) []Candidate {
	nz := make([]int, 0, len(q))
	for j, v := range q {
		if v != 0 {
			nz = append(nz, j)
		}
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.met.Searches.Inc()
	top := NewTopK(k, ix.live)
	var ids [4]int
	var vecs [4][]float64
	m := 0
	for id, vec := range ix.vecs {
		if vec == nil || id == exclude {
			continue
		}
		ids[m], vecs[m] = id, vec
		if m++; m < len(ids) {
			continue
		}
		var s0, s1, s2, s3 float64
		for _, j := range nz {
			x := q[j]
			s0 += x * vecs[0][j]
			s1 += x * vecs[1][j]
			s2 += x * vecs[2][j]
			s3 += x * vecs[3][j]
		}
		top.Push(Candidate{ID: ids[0], Score: s0})
		top.Push(Candidate{ID: ids[1], Score: s1})
		top.Push(Candidate{ID: ids[2], Score: s2})
		top.Push(Candidate{ID: ids[3], Score: s3})
		m = 0
	}
	for i, vec := range vecs[:m] {
		var sum float64
		for _, j := range nz {
			sum += q[j] * vec[j]
		}
		top.Push(Candidate{ID: ids[i], Score: sum})
	}
	return top.Sorted()
}

// TopK selects the best k of a stream of candidates in the order every
// search and rerank returns: decreasing score, ties by ascending id. It
// keeps them in a heap whose root is the last of the kept candidates, so
// a candidate that does not beat the root costs one comparison.
type TopK struct {
	h []Candidate
	k int
}

// NewTopK returns a selection of the best k of at most n candidates; k < 0
// or k > n keeps all n. The heap is sized by min(k, n), never by k alone,
// because k comes from the request.
func NewTopK(k, n int) *TopK {
	if k < 0 || k > n {
		k = n
	}
	return &TopK{h: make([]Candidate, 0, k), k: k}
}

// Push offers c to the selection.
func (t *TopK) Push(c Candidate) {
	switch {
	case len(t.h) < t.k:
		t.h = append(t.h, c)
		siftUp(t.h)
	case t.k > 0 && before(c, t.h[0]):
		t.h[0] = c
		siftDown(t.h, 0)
	}
}

// Sorted returns the kept candidates in order, best first. It sorts the
// heap in place, so the TopK must not be used afterwards.
func (t *TopK) Sorted() []Candidate {
	h := t.h
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0)
	}
	return h
}

// siftUp moves the last candidate of h up to its place in the heap.
func siftUp(h []Candidate) {
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the heap order below h[i]: no candidate comes after
// its parent, so the root is the last of the heap.
func siftDown(h []Candidate, i int) {
	for {
		last := i
		if l := 2*i + 1; l < len(h) && before(h[last], h[l]) {
			last = l
		}
		if r := 2*i + 2; r < len(h) && before(h[last], h[r]) {
			last = r
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

// before is the search order: a comes before b.
func before(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// Equal reports whether two indexes hold bit-identical state: same width,
// same id space, same tombstones, per-id vectors equal bit for bit (NaNs
// compare by bit pattern, so even those would have to match). Tests use
// Equal to assert that incremental, batch, and recovered engines build the
// same index.
func (ix *Index) Equal(o *Index) bool {
	if ix == nil || o == nil {
		return ix == o
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	if ix.dim != o.dim || ix.live != o.live || len(ix.vecs) != len(o.vecs) {
		return false
	}
	for id, vec := range ix.vecs {
		ov := o.vecs[id]
		if (vec == nil) != (ov == nil) {
			return false
		}
		for i, v := range vec {
			if math.Float64bits(v) != math.Float64bits(ov[i]) {
				return false
			}
		}
	}
	return true
}
