package core

import "math"

// CompareRow sets out[i] to the value ComparePrepared returns for the
// query q and cands[i], bit for bit: ComparePrepared(cands[i], q) for
// i < split and ComparePrepared(q, cands[i]) from split on. It returns
// how many values a class dot product derived instead of an evaluation.
// The views must come from one Interner.
//
// Values are shared between candidates of one shape (Prepared.Shape), so
// a caller orders cands by orientation and shape to make runs of them:
//
//   - Consecutive candidates of one orientation whose views share an id
//     array share one A×B match table and its slot assignment, which
//     depend on the two id sequences alone.
//   - Under ViaMaxOccurrence a substring of at least cut tokens is viable
//     in a candidate of the run whatever its weights (weights are >= 1),
//     and a shorter one iff the candidate has an occurrence of it weighing
//     >= cut. With the query fixed, the set of such short substrings that
//     the query can make viable (the candidate's class) therefore fixes
//     the feature set F. For fixed F the kernel is linear in the
//     candidate's weights: k = Σ_y coef[y]·w[y], with
//     coef[y] = Σ_{t∈F} S_q(t)·#(candidate occurrences of t covering y).
//
// A class's first member is evaluated in full; its second is too, and its
// stats give the coefficients; later members pay the class key and a dot
// product. Every term is a non-negative integer, so while the value stays
// below 2^53 both the evaluation's float64 sum and the int64 dot product
// are exact and equal; a dot product is used only when
// max(coef)·Σw < 2^53 proves that, and the candidate is evaluated
// otherwise. A run of one candidate is a plain evaluation.
func (k *Kast) CompareRow(q *Prepared, cands []*Prepared, split int, out []float64) (derived int) {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	for lo := 0; lo < len(cands); {
		qFirst := lo >= split
		hi := lo + 1
		for hi < len(cands) && (hi >= split) == qFirst && sameIDs(cands[hi].view.ids, cands[lo].view.ids) {
			hi++
		}
		switch {
		case hi-lo > 1:
			derived += k.compareRun(s, &q.view, cands[lo:hi], qFirst, out[lo:hi])
		case qFirst:
			out[lo] = k.comparePair(s, &q.view, &cands[lo].view)
		default:
			out[lo] = k.comparePair(s, &cands[lo].view, &q.view)
		}
		lo = hi
	}
	return derived
}

// sameIDs reports whether two id sequences are one array, as the views of
// one shape's strings are.
func sameIDs(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// exactLimit bounds the integers a float64 holds exactly.
const exactLimit = 1 << 53

// rowClass is one class of a run: how many members were evaluated in full,
// and once the second one was, the coefficients over the shape's positions
// and the largest candidate weight total the dot product is exact for.
type rowClass struct {
	evaluated int
	coef      []int64
	limit     int64
}

// compareRun is CompareRow over candidates that share one id array and one
// orientation: the query is side A if qFirst, side B otherwise.
func (k *Kast) compareRun(s *scratch, qv *seqView, cands []*Prepared, qFirst bool, out []float64) (derived int) {
	av, bv, qs := qv, &cands[0].view, sideA
	if !qFirst {
		av, bv, qs = bv, av, sideB
	}
	if len(av.ids) == 0 || len(bv.ids) == 0 {
		clear(out)
		return 0
	}
	s.matchLengths(av.ids, bv.ids)
	a := occurrences{v: av, lens: s.la, at: s.rowOff}
	b := occurrences{v: bv, lens: s.lb, at: s.atB}
	q, c := &a, &b
	if !qFirst {
		q, c = c, q
	}
	cut, maxOcc := k.CutWeight, k.Viability == ViaMaxOccurrence
	if maxOcc && !reachesCut(qv, q.lens, cut) {
		clear(out)
		return 0
	}
	slotted, classes := false, maxOcc && qv.linear
	for i, cand := range cands {
		c.v = &cand.view
		if maxOcc && !reachesCut(c.v, c.lens, cut) {
			out[i] = 0
			continue
		}
		if !slotted {
			// Slots are assigned once per run, and only past the first
			// early exit that does not fire.
			s.assignSlots()
			if classes {
				s.keySlots(*q, k)
			}
			slotted = true
		}
		var cl *rowClass
		if classes && c.v.linear {
			cl = s.classOf(*c, k)
			if cl.coef != nil && int64(c.v.pw[len(c.v.ids)]) <= cl.limit {
				out[i] = float64(dot(cl.coef, c.v.pw))
				derived++
				continue
			}
		}
		s.resetStats()
		out[i] = k.evaluate(s, a, b)
		if cl != nil {
			if cl.evaluated++; cl.evaluated == 2 {
				cl.coef, cl.limit = s.coefficients(*c, qs)
			}
		}
	}
	return derived
}

// keySlots numbers the run's key slots: the substrings shorter than the cut
// that have an occurrence weighing >= cut in the query q. bit[slot] is the
// slot's key bit plus one, 0 for every other slot. It also starts the
// run's class table.
func (s *scratch) keySlots(q occurrences, k *Kast) {
	s.bit = grow(s.bit, len(s.slab))
	s.keyBits = 0
	for p := range q.lens {
		slots := s.slots(q, p)
		top := min(len(slots), k.CutWeight-1)
		for l := k.registerFrom(q.v, p, top); l <= top; l++ {
			if slot := slots[l-1]; s.bit[slot] == 0 {
				s.keyBits++
				s.bit[slot] = s.keyBits
			}
		}
	}
	s.classes = s.classes[:0]
	if s.classIdx == nil {
		s.classIdx = make(map[string]int)
	}
	clear(s.classIdx)
	s.coefs = s.coefs[:0]
}

// classOf returns the class of the candidate c: its key sets the bit of
// every key slot with an occurrence in c weighing >= cut.
func (s *scratch) classOf(c occurrences, k *Kast) *rowClass {
	if s.keyBits == 0 {
		if len(s.classes) == 0 {
			s.classes = append(s.classes, rowClass{})
		}
		return &s.classes[0]
	}
	key := grow(s.key, (int(s.keyBits)+7)/8)
	s.key = key
	for p := range c.lens {
		slots := s.slots(c, p)
		top := min(len(slots), k.CutWeight-1)
		for l := k.registerFrom(c.v, p, top); l <= top; l++ {
			if b := s.bit[slots[l-1]] - 1; b >= 0 {
				key[b>>3] |= 1 << (b & 7)
			}
		}
	}
	i, ok := s.classIdx[string(key)]
	if !ok {
		i = len(s.classes)
		s.classIdx[string(key)] = i
		s.classes = append(s.classes, rowClass{})
	}
	return &s.classes[i]
}

// coefficients derives the class coefficients from the stats of a full
// evaluation of the candidate c, the query on side qs: every occurrence
// of a feature in c adds the feature's query value S_q over the positions
// it covers, by a difference array. limit is the largest weight total of
// a candidate whose dot product stays below 2^53; a nil coef means the
// class cannot be shown exact.
func (s *scratch) coefficients(c occurrences, qs side) (coef []int64, limit int64) {
	n := len(c.lens)
	diff := grow(s.diff, n+1)
	s.diff = diff
	var total int64 // bounds every coefficient and partial sum
	for p := range c.lens {
		for l, slot := range s.slots(c, p) {
			if st := &s.slab[slot]; st.viable && st.uncovered {
				v := st.sum[qs]
				if v > exactLimit-total {
					return nil, 0
				}
				total += v
				diff[p] += v
				diff[p+l+1] -= v
			}
		}
	}
	off := len(s.coefs)
	s.coefs = append(s.coefs, diff[:n]...)
	coef = s.coefs[off:]
	var run, peak int64
	for y, d := range coef {
		run += d
		coef[y] = run
		peak = max(peak, run)
	}
	if peak == 0 {
		return coef, math.MaxInt64
	}
	return coef, (exactLimit - 1) / peak
}

// dot is Σ_y coef[y]·w[y] over the weights behind the prefix sums pw.
func dot(coef []int64, pw []int) int64 {
	var sum int64
	for y, c := range coef {
		sum += c * int64(pw[y+1]-pw[y])
	}
	return sum
}
