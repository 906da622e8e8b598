// Package core implements the paper's primary contribution: the Kast
// Spectrum Kernel (§3.2 of Torres et al., PaCT 2017) and the end-to-end
// pipeline that turns raw I/O traces into weighted strings.
//
// # Kernel definition
//
// Given two weighted strings A and B and a cut weight c, the kernel's
// features are the substrings t (by token-literal sequence) such that:
//
//  1. t occurs in both strings (a "shared" substring);
//  2. t is viable: it has at least one occurrence whose weight — the sum of
//     the weights of the tokens it spans — is >= c, in each string ("strings
//     with a weight value that is smaller than the cut weight are ignored";
//     "the weight of a target substring might be different in each string");
//  3. t is maximal somewhere: at least one occurrence of t, in at least one
//     of the strings, is not properly contained in an occurrence of a longer
//     viable shared substring ("a target substring must not be a substring
//     of another matching substring in at least one of the original
//     strings").
//
// The feature value of t in a string is the summation of the weights of all
// its appearances there ("its value is the summation of the weights of all
// the substring appearances in a string"), and the kernel value is the inner
// product of the two feature vectors. The paper's fully worked example
// (Figs. 3-5: k = 1018, normalised 1018/3328) is reproduced under these
// semantics in the package tests.
package core

import (
	"fmt"
	"math"
	"sync"

	"iokast/internal/token"
)

// Viability selects how condition (2) above is evaluated. The paper's text
// supports ViaMaxOccurrence (each counted appearance carries its own weight
// and too-light substrings are ignored); ViaTotalWeight is a plausible
// alternative reading kept for the ablation study.
type Viability int

const (
	// ViaMaxOccurrence: viable iff some single occurrence reaches the cut
	// weight in each string. Default.
	ViaMaxOccurrence Viability = iota
	// ViaTotalWeight: viable iff the summed occurrence weight reaches the
	// cut weight in each string.
	ViaTotalWeight
)

// String returns the variant name.
func (v Viability) String() string {
	switch v {
	case ViaMaxOccurrence:
		return "maxocc"
	case ViaTotalWeight:
		return "total"
	}
	return "unknown"
}

// Kast is the Kast Spectrum Kernel. The zero value is a valid kernel with
// cut weight 0 (every shared substring viable) and ViaMaxOccurrence.
type Kast struct {
	// CutWeight is the minimum occurrence weight (see Viability) for a
	// shared substring to produce a feature.
	CutWeight int
	// Viability selects the cut-weight semantics.
	Viability Viability
}

// Name implements kernel.Kernel.
func (k *Kast) Name() string {
	return fmt.Sprintf("kast(cut=%d,%s)", k.CutWeight, k.Viability)
}

// Compare implements kernel.Kernel. It runs in O(|A|*|B| + occ) time and
// space, where occ is the number of shared-substring occurrences in the two
// strings. One longest-common-extension DP over A×B decides substring
// equality exactly: besides the longest shared substring at every start, it
// names each shared substring by its first occurrence in B, so occurrences
// are grouped by integer identity and nothing is hashed. The naive
// reference implementation in naive.go cross-checks it in tests.
// CompareRow computes one string against many prepared ones and shares
// the match table, and often the whole evaluation, between those that
// repeat a literal sequence.
func (k *Kast) Compare(a, b token.String) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	av, bv := internPair(a, b)
	return k.compareViews(&av, &bv)
}

// compareViews runs the kernel over two interned views. The views must have
// been interned over a common literal table (internPair or a shared
// Interner) so that equal literals carry equal ids.
func (k *Kast) compareViews(av, bv *seqView) float64 {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	return k.comparePair(s, av, bv)
}

// comparePair is one evaluation on the working memory s.
func (k *Kast) comparePair(s *scratch, av, bv *seqView) float64 {
	if len(av.ids) == 0 || len(bv.ids) == 0 {
		return 0
	}
	// Longest common extension: la[i] = longest match starting at A[i]
	// anywhere in B; lb[j] symmetric.
	s.matchLengths(av.ids, bv.ids)

	// Under ViaMaxOccurrence a feature needs an occurrence of weight >= cut
	// on each side. Weights are >= 1, so the heaviest shared occurrence at a
	// start is the longest one; if no start on one side reaches the cut, no
	// substring is viable and the slot and stats work is skipped.
	cut := k.CutWeight
	if k.Viability == ViaMaxOccurrence && (!reachesCut(av, s.la, cut) || !reachesCut(bv, s.lb, cut)) {
		return 0
	}
	s.assignSlots()
	return k.evaluate(s, occurrences{v: av, lens: s.la, at: s.rowOff}, occurrences{v: bv, lens: s.lb, at: s.atB})
}

// evaluate runs phases 1 to 5 over the slots assignSlots named, with every
// stats entry clear: a's side is A, b's side is B.
func (k *Kast) evaluate(s *scratch, a, b occurrences) float64 {
	// Phase 1: register substrings that have a >= cut occurrence, per side.
	// Occurrence weight grows with length at a fixed start, so only lengths
	// >= the minimal qualifying length need registering (for cut <= 1 that
	// is every length). For ViaTotalWeight all occurrences must accumulate,
	// so registration starts at length 1.
	s.register(a, sideA, k)
	s.register(b, sideB, k)

	// Phase 2 (ViaMaxOccurrence only): accumulate the weights of ALL
	// occurrences of registered substrings — including sub-cut occurrences,
	// which count toward feature values once the substring is viable.
	if k.Viability == ViaMaxOccurrence {
		s.accumulate(a, sideA)
		s.accumulate(b, sideB)
	}
	// The stats are final: decide each registered substring's viability once.
	for _, slot := range s.order {
		st := &s.slab[slot]
		st.viable = st.isViable(k.CutWeight, k.Viability)
	}

	// Phases 3 and 4: per start, the maximal viable occurrence length, and
	// the substrings with at least one uncovered occurrence.
	s.markUncovered(a)
	s.markUncovered(b)

	// Phase 5: inner product over surviving features, accumulated in
	// first-registration order — a deterministic function of the inputs —
	// so the float sum is bit-identical across runs.
	var sum float64
	for _, slot := range s.order {
		if st := &s.slab[slot]; st.viable && st.uncovered {
			sum += float64(st.sum[sideA]) * float64(st.sum[sideB])
		}
	}
	return sum
}

// registerFrom returns the minimal occurrence length to register at start i
// for phase 1.
func (k *Kast) registerFrom(v *seqView, i int, maxLen int) int {
	if k.Viability == ViaTotalWeight || k.CutWeight <= 1 {
		return 1
	}
	// Smallest l with pw[i+l]-pw[i] >= cut; weights are >= 1 so l exists
	// within maxLen or not at all.
	lo, hi := 1, maxLen
	if v.pw[i+maxLen]-v.pw[i] < k.CutWeight {
		return maxLen + 1 // nothing qualifies at this start
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if v.pw[i+mid]-v.pw[i] >= k.CutWeight {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// reachesCut reports whether some shared occurrence in v, the longest at
// each start per lens, weighs at least cut.
func reachesCut(v *seqView, lens []int32, cut int) bool {
	for p, l := range lens {
		if l > 0 && v.weight(p, int(l)) >= cut {
			return true
		}
	}
	return false
}

type side int

const (
	sideA side = iota
	sideB
)

// substringStats holds one shared substring's statistics, per side.
type substringStats struct {
	sum        [2]int64 // total occurrence weight per side
	peak       [2]int32 // maximal single-occurrence weight per side
	registered bool     // has a phase-1 occurrence
	viable     bool     // passes the cut-weight test; set after phase 2
	uncovered  bool     // has an occurrence not covered by a longer viable one
}

func (st *substringStats) isViable(cut int, v Viability) bool {
	switch v {
	case ViaTotalWeight:
		return st.sum[sideA] >= int64(cut) && st.sum[sideB] >= int64(cut)
	default:
		return int(st.peak[sideA]) >= cut && int(st.peak[sideB]) >= cut
	}
}

// seqView is an interned weighted string: literal ids and prefix weights.
type seqView struct {
	ids []int32
	pw  []int // pw[i] = sum of weights of tokens [0, i)
	// linear: every weight is >= 1 and the total fits in an int32, so no
	// peak truncates and every substring of at least cut tokens reaches the
	// cut. CompareRow derives values by a dot product only between linear
	// views.
	linear bool
}

// newView builds the view of s over its interned literal ids.
func newView(ids []int32, s token.String) seqView {
	pw := make([]int, len(s)+1)
	linear := true
	for i, t := range s {
		pw[i+1] = pw[i] + t.Weight
		linear = linear && t.Weight >= 1 && t.Weight <= math.MaxInt32 && pw[i+1] <= math.MaxInt32
	}
	return seqView{ids: ids, pw: pw, linear: linear}
}

// internPair interns both strings over a shared literal table.
func internPair(a, b token.String) (seqView, seqView) {
	idOf := make(map[string]int32, len(a)+len(b))
	intern := func(s token.String) seqView {
		ids := make([]int32, len(s))
		for i, t := range s {
			id, ok := idOf[t.Literal]
			if !ok {
				id = int32(len(idOf)) + 1
				idOf[t.Literal] = id
			}
			ids[i] = id
		}
		return newView(ids, s)
	}
	return intern(a), intern(b)
}

// weight returns the occurrence weight of the substring [i, i+l).
func (v *seqView) weight(i, l int) int { return v.pw[i+l] - v.pw[i] }

// scratch is one evaluation's working memory. Substring identity lives in
// it: a shared substring is named by (j0, l), its first start j0 in B and
// its length l, and that name maps to a dense slot indexing the stats slab.
// Every occurrence (p, l) of a side, 1 <= l <= lens[p], finds its slot at
// slotOf[at[p]+l-1] (see occurrences). Scratches are pooled, so a stream of
// evaluations reuses the arrays of earlier ones instead of allocating.
type scratch struct {
	prev, cur []int32          // rolling DP rows
	la, lb    []int32          // longest shared substring per start in A, in B
	rowOff    []int32          // rowOff[i]: where A start i's entries begin in slotOf
	atB       []int32          // atB[j]: rowOff[i] for an A start i matching lb[j] at B[j]
	slotOf    []int32          // per A start and length: the first B start, then the slot
	offB      []int32          // prefix sums of lb
	slab      []substringStats // one entry per slot
	order     []int32          // registered slots in first-registration order

	// CompareRow's class state for one run (see row.go).
	bit      []int32        // per slot: its key bit plus one, 0 if none
	keyBits  int32          // key bits in use
	key      []byte         // the current candidate's class key
	classIdx map[string]int // class key -> index into classes
	classes  []rowClass
	coefs    []int64 // the classes' coefficients
	diff     []int64 // difference array the coefficients are summed from
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// grow returns buf resized to n zeroed elements, reusing its array when it
// is large enough.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// matchLengths runs the longest-common-extension DP over A×B. Row i holds
// LCE(i, j), the length of the longest common prefix of A[i:] and B[j:],
// for every j; it is built from row i+1 with two rolling arrays, in
// O(|A|*|B|) time. From the rows it keeps:
//
//   - la[i] = max_j LCE(i, j), the longest shared substring at A[i];
//   - lb[j] = max_i LCE(i, j), and atB[j] = rowOff[i] for an i attaining it;
//   - firstB(i, l), the first j with LCE(i, j) >= l, for every l <= la[i]:
//     the first occurrence in B of A[i:i+l]. Scanning row i by ascending j
//     finds them all in O(|B| + la[i]); they go to slotOf[rowOff[i]+l-1].
func (s *scratch) matchLengths(a, b []int32) {
	n, m := len(a), len(b)
	s.la, s.rowOff = grow(s.la, n), grow(s.rowOff, n)
	s.lb, s.atB = grow(s.lb, m), grow(s.atB, m)
	s.prev, s.cur = grow(s.prev, m+1), grow(s.cur, m+1)
	lb, atB, slotOf := s.lb[:m], s.atB[:m], s.slotOf[:0]
	prev, cur := s.prev, s.cur
	for i := n - 1; i >= 0; i-- {
		ai, off := a[i], int32(len(slotOf))
		next, row := prev[1:m+1], cur[:m] // next[j] = LCE(i+1, j+1)
		var longest int32
		for j, bj := range b {
			e := next[j] + 1
			if ai != bj {
				e = 0
			}
			row[j] = e
			longest = max(longest, e)
			if e > lb[j] {
				lb[j], atB[j] = e, off
			}
		}
		// firstB(i, l) for l = 1..la[i], kept out of the loop above so
		// that loop makes no calls.
		var l int32
		for j := 0; l < longest; j++ {
			for ; l < row[j]; l++ {
				slotOf = append(slotOf, int32(j))
			}
		}
		s.la[i], s.rowOff[i] = longest, off
		prev, cur = cur, prev
	}
	s.slotOf = slotOf
}

// assignSlots turns the first B starts in slotOf into slots and clears one
// stats entry per slot. The substring named (j0, l) gets slot
// offB[j0]+l-1, with offB the prefix sums of lb: a substring first
// occurring at j0 has length l <= lb[j0], so j0 owns the slots
// [offB[j0], offB[j0+1]) and distinct substrings get distinct slots.
func (s *scratch) assignSlots() {
	s.offB = grow(s.offB, len(s.lb)+1)
	for j, l := range s.lb {
		s.offB[j+1] = s.offB[j] + l
	}
	for i, at := range s.rowOff {
		row := s.slotOf[at : at+s.la[i]]
		for l, j0 := range row {
			row[l] = s.offB[j0] + int32(l)
		}
	}
	s.slab = grow(s.slab, int(s.offB[len(s.lb)]))
	s.order = s.order[:0]
}

// resetStats clears the stats an evaluation left, which are those of the
// registered slots, so another evaluation can run over the same slots.
func (s *scratch) resetStats() {
	for _, slot := range s.order {
		s.slab[slot] = substringStats{}
	}
	s.order = s.order[:0]
}

// occurrences is one side's shared-substring occurrences: (p, l) for every
// start p and 1 <= l <= lens[p]. The slots of start p are
// slotOf[at[p] : at[p]+lens[p]], by length. On side A that is the start's
// own DP row; a B start j reads the row of an A start whose match at j has
// length lb[j], since each of its shared substrings is a prefix of that
// match.
type occurrences struct {
	v    *seqView
	lens []int32
	at   []int32
}

// slots returns the slots of the occurrences at start p; index l-1 holds
// length l.
func (s *scratch) slots(o occurrences, p int) []int32 {
	at := o.at[p]
	return s.slotOf[at : at+o.lens[p]]
}

// register is phase 1 for one side: it registers, in scan order, every
// substring with an occurrence there of at least k.registerFrom tokens, and
// records the occurrence weights the viability test reads.
func (s *scratch) register(o occurrences, sd side, k *Kast) {
	for p := range o.lens {
		slots := s.slots(o, p)
		if len(slots) == 0 {
			continue
		}
		for l := k.registerFrom(o.v, p, len(slots)); l <= len(slots); l++ {
			slot := slots[l-1]
			st := &s.slab[slot]
			if !st.registered {
				st.registered = true
				s.order = append(s.order, slot)
			}
			w := o.v.weight(p, l)
			if k.Viability == ViaTotalWeight {
				st.sum[sd] += int64(w)
			}
			if int32(w) > st.peak[sd] {
				st.peak[sd] = int32(w)
			}
		}
	}
}

// accumulate adds the weights of every occurrence of already-registered
// substrings (unregistered substrings cannot become viable).
func (s *scratch) accumulate(o occurrences, sd side) {
	for p := range o.lens {
		for l, slot := range s.slots(o, p) {
			if st := &s.slab[slot]; st.registered {
				st.sum[sd] += int64(o.v.weight(p, l+1))
			}
		}
	}
}

// markUncovered sets the uncovered flag on every viable substring that has
// at least one occurrence on this side not properly contained in a longer
// viable occurrence. An occurrence [p, p+l) is covered iff a viable
// occurrence [p', p'+l') exists with p' <= p, p'+l' >= p+l and l' > l.
// With mv(p), the longest viable length at start p (phase 3), that reduces
// to:
//
//	mv(p) > l                     (a longer viable occurrence at the same start), or
//	p'+mv(p') >= p+l for a p' < p (some earlier start covers it).
//
// A viable occurrence has l <= mv(p), so only l = mv(p) can escape the
// first test, and the second needs only the farthest reach of the earlier
// starts.
func (s *scratch) markUncovered(o occurrences) {
	reach := 0
	for p := range o.lens {
		slots := s.slots(o, p)
		mv := len(slots)
		for mv > 0 && !s.slab[slots[mv-1]].viable {
			mv--
		}
		if mv > 0 && p+mv > reach {
			s.slab[slots[mv-1]].uncovered = true
			reach = p + mv
		}
	}
}
