package core

import (
	"slices"
	"sync"

	"iokast/internal/token"
)

// Prepared is a weighted string preprocessed for repeated Kast kernel
// evaluations: its literals interned to integer ids over a shared table,
// plus its prefix weights — the two arrays Kast.Compare otherwise builds for
// every pair. Substring identity needs nothing per string, since each
// evaluation derives it exactly from its own A×B match table. Preparing
// once and comparing many times removes the per-pair interning, which is
// what keeps the engine's query-time kernel evaluations cheap (compare
// internal/engine).
//
// Views of one shape — equal literal sequences, whatever the weights —
// share one id array, which lets Kast.CompareRow share a match table and
// feature set between them.
//
// A Prepared view is independent of the kernel's cut weight and viability
// variant, so the same view can be reused across kernels with different
// parameters without invalidation.
type Prepared struct {
	view  seqView
	str   token.String
	shape int32 // shape number; -1 for ephemeral views
	// unknown holds the literals that were absent from the shared table when
	// an ephemeral view was prepared (nil for interned views). They carry
	// negative scratch ids, which can never collide with table ids; Stale
	// reports whether any of them has been interned since.
	unknown []string
}

// String returns the original weighted string the view was prepared from.
func (p *Prepared) String() token.String { return p.str }

// Len returns the token length of the underlying string.
func (p *Prepared) Len() int { return len(p.view.ids) }

// Shape returns the number of the view's shape, its literal sequence: two
// views prepared by one Interner have equal numbers iff their literals are
// equal token by token. Numbers are dense, in first-seen order, so they
// differ between Interners that saw strings in different orders; they
// order work for Kast.CompareRow and never enter a value. Ephemeral views
// have no shape and return -1.
func (p *Prepared) Shape() int { return int(p.shape) }

// Interner interns token literals to dense int32 ids shared by every string
// prepared through it, and hash-conses the id sequences of the strings
// themselves: each distinct sequence is stored once, as a shape. Views
// prepared by the same Interner are mutually comparable with
// Kast.ComparePrepared and Kast.CompareRow; views from different Interners
// are not (their ids come from different tables).
//
// Prepare is safe for concurrent use. The tables only grow: preparing new
// strings never invalidates previously returned views.
type Interner struct {
	mu      sync.Mutex
	idOf    map[string]int32
	next    int32
	shapeOf map[uint64]int32 // id-sequence hash -> the newest shape with it
	shapes  []shape          // by shape number
	ids     []int32          // Prepare's id buffer, used under mu
}

// shape is one distinct literal-id sequence. Shapes whose sequences hash
// alike are chained newest first, and a lookup compares the ids, so
// identity is exact.
type shape struct {
	ids  []int32
	prev int32 // the previous shape with the same hash, or -1
}

// NewInterner returns an Interner with empty literal and shape tables.
func NewInterner() *Interner {
	return &Interner{idOf: make(map[string]int32), next: 1, shapeOf: make(map[uint64]int32)}
}

// Prepare interns x and precomputes its prefix weights. The input string
// is copied, so later mutation of x does not affect the view. A string of
// a shape seen before shares that shape's id array.
func (in *Interner) Prepare(x token.String) *Prepared {
	cp := make(token.String, len(x))
	copy(cp, x)

	// Only the tables need the lock; the O(n) prefix-weight build runs
	// outside it so concurrent Prepare calls overlap.
	in.mu.Lock()
	ids := in.ids[:0]
	h := uint64(14695981039346656037) // FNV-1a, one id per step
	for _, t := range cp {
		id, ok := in.idOf[t.Literal]
		if !ok {
			id = in.next
			in.next++
			in.idOf[t.Literal] = id
		}
		ids = append(ids, id)
		h = (h ^ uint64(uint32(id))) * 1099511628211
	}
	in.ids = ids
	head, ok := in.shapeOf[h]
	if !ok {
		head = -1
	}
	num := head
	for num >= 0 && !slices.Equal(in.shapes[num].ids, ids) {
		num = in.shapes[num].prev
	}
	if num < 0 {
		num = int32(len(in.shapes))
		in.shapes = append(in.shapes, shape{ids: slices.Clone(ids), prev: head})
		in.shapeOf[h] = num
	}
	ids = in.shapes[num].ids
	in.mu.Unlock()
	return &Prepared{view: newView(ids, cp), str: cp, shape: num}
}

// Size returns the number of distinct literals interned so far.
func (in *Interner) Size() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.idOf)
}

// PrepareEphemeral is Prepare for query-only strings: literals already in
// the table resolve to their shared ids, but unknown literals are NOT
// interned — they get negative scratch ids unique within this view — and
// no shape is added, so the shared tables never grow from query traffic.
// A scratch id can never equal a table id (those start at 1 and only
// grow), and the kernel only compares ids for equality, so an unknown
// query literal simply never matches any corpus literal — which is exactly
// right, because a literal absent from the table is absent from every
// prepared corpus string.
//
// The returned view is valid against corpus views prepared before it. If a
// concurrent Prepare interns one of the unknown literals afterwards, newer
// corpus views would carry the table id while this view still carries the
// scratch id; Stale detects that so callers can re-prepare. Views with no
// unknown literals are never stale.
func (in *Interner) PrepareEphemeral(x token.String) *Prepared {
	cp := make(token.String, len(x))
	copy(cp, x)

	ids := make([]int32, len(cp))
	var unknown []string
	scratch := make(map[string]int32)
	in.mu.Lock()
	for i, t := range cp {
		id, ok := in.idOf[t.Literal]
		if !ok {
			id, ok = scratch[t.Literal]
			if !ok {
				id = -int32(len(unknown)) - 1
				scratch[t.Literal] = id
				unknown = append(unknown, t.Literal)
			}
		}
		ids[i] = id
	}
	in.mu.Unlock()
	return &Prepared{view: newView(ids, cp), str: cp, shape: -1, unknown: unknown}
}

// Stale reports whether any literal that was unknown when p was prepared
// with PrepareEphemeral has since been interned into the table. A stale
// view must not be compared against views prepared after the interning;
// re-prepare instead. Views from Prepare are never stale.
func (in *Interner) Stale(p *Prepared) bool {
	if len(p.unknown) == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, lit := range p.unknown {
		if _, ok := in.idOf[lit]; ok {
			return true
		}
	}
	return false
}

// ComparePrepared is Compare over views prepared by a shared Interner. It
// produces exactly the same value as Compare on the original strings (the
// kernel only depends on literal equality, which interning preserves) while
// skipping the per-pair interning and prefix-weight work.
func (k *Kast) ComparePrepared(a, b *Prepared) float64 {
	return k.compareViews(&a.view, &b.view)
}

// PrepareAll prepares every string of xs once over a fresh Interner and
// returns an evaluator of ComparePrepared on strings i and j, which equals
// Compare(xs[i], xs[j]) bit for bit and is safe for concurrent calls.
// kernel.Gram uses it, so a Gram interns each string once instead of twice
// per pair.
func (k *Kast) PrepareAll(xs []token.String) func(i, j int) float64 {
	in := NewInterner()
	ps := make([]*Prepared, len(xs))
	for i, x := range xs {
		ps[i] = in.Prepare(x)
	}
	return func(i, j int) float64 { return k.ComparePrepared(ps[i], ps[j]) }
}
