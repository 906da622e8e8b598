package sketch

import "iokast/internal/token"

// Accum maintains the sketch of a sliding window over a token stream
// incrementally: appending a token costs O(MaxLen) hash-and-accumulate
// operations and evicting the oldest token costs O(MaxLen) subtractions,
// independent of the window size — against O(window * MaxLen) for
// re-sketching the window from scratch. This is the incremental update
// hook behind the streaming ingest path (internal/stream), where every
// stride tick would otherwise re-embed an almost-unchanged window.
//
// The accumulated vector is *exactly* the unnormalised Sketch of the
// current window contents. Two facts make that exact rather than merely
// close: every substring feature of a window is generated once, grouped
// by its start position (so evicting a position subtracts precisely the
// contributions appending it added — substrings only extend forward); and
// every contribution is a signed integer weight, which float64 adds and
// subtracts exactly while bucket magnitudes stay below 2^53 — far beyond
// any real window. Vector therefore returns bit-identical output to
// Sketcher.Sketch of the window token string, which the tests pin.
//
// An Accum is not safe for concurrent use.
type Accum struct {
	s *Sketcher
	// vec is the unnormalised window sketch.
	vec []float64
	// ring holds one entry per buffered token position, oldest at head.
	ring []accumPos
	head int
	n    int
}

// accumPos is the per-start-position state: the rolling polynomial hash
// and weight sum of the substring from this position to the stream end
// (maintained only while it can still grow, i.e. length <= MaxLen), plus
// every signed bucket contribution this start has made — what eviction
// must subtract.
type accumPos struct {
	h        uint64
	w        int
	contribs []bucketVal
}

type bucketVal struct {
	bucket int32
	val    float64
}

// NewAccum returns an empty sliding-window accumulator for this
// sketcher's configuration.
func (s *Sketcher) NewAccum() *Accum {
	return &Accum{s: s, vec: make([]float64, s.dim)}
}

// Len returns the number of buffered token positions.
func (a *Accum) Len() int { return a.n }

// pos returns the i-th buffered position (0 = oldest).
func (a *Accum) pos(i int) *accumPos {
	return &a.ring[(a.head+i)%len(a.ring)]
}

// Append extends the window by one token: the token opens a new start
// position and extends the up-to-MaxLen-1 most recent ones, accumulating
// one substring feature per extension.
func (a *Accum) Append(t token.Token) {
	th := hashString(t.Literal)
	// Extend the most recent starts: the one k back reaches length k+1.
	m := min(MaxLen-1, a.n)
	for k := 1; k <= m; k++ {
		p := a.pos(a.n - k)
		p.h = p.h*polyBase + th
		p.w += t.Weight
		a.add(p, k+1)
	}
	if a.n == len(a.ring) {
		a.grow()
	}
	a.n++
	p := a.pos(a.n - 1)
	*p = accumPos{h: th, w: t.Weight, contribs: p.contribs[:0]}
	a.add(p, 1)
}

// add accumulates the substring feature of start p at length l into the
// vector and records it for eviction, mirroring Sketcher.accumulate (and
// Sketch's length folding) exactly.
func (a *Accum) add(p *accumPos, l int) {
	v := float64(p.w)
	h := mix64(mix64(p.h^uint64(l)*lenSalt) ^ a.s.seed)
	if h>>63 != 0 {
		v = -v
	}
	b := int32(h % uint64(a.s.dim))
	a.vec[b] += v
	p.contribs = append(p.contribs, bucketVal{bucket: b, val: v})
}

// Evict drops the oldest token position, subtracting every contribution
// it made. It reports whether anything was evicted.
func (a *Accum) Evict() bool {
	if a.n == 0 {
		return false
	}
	p := &a.ring[a.head]
	for _, c := range p.contribs {
		a.vec[c.bucket] -= c.val
	}
	p.contribs = p.contribs[:0]
	a.head = (a.head + 1) % len(a.ring)
	a.n--
	return true
}

// grow doubles the ring, re-linearising the live entries.
func (a *Accum) grow() {
	size := len(a.ring) * 2
	if size == 0 {
		size = 16
	}
	next := make([]accumPos, size)
	for i := 0; i < a.n; i++ {
		next[i] = *a.pos(i)
	}
	a.ring = next
	a.head = 0
}

// Vector returns the normalised window sketch — bit-identical to
// Sketcher.Sketch of the window's token string (zero for an empty or
// degenerate window), as a fresh copy the caller may keep.
func (a *Accum) Vector() []float64 {
	out := make([]float64, len(a.vec))
	copy(out, a.vec)
	normalize(out)
	return out
}
