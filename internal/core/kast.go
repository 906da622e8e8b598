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

// Compare implements kernel.Kernel. It runs in O(|A|*|B| + occ) time where
// occ is the number of common-substring occurrences, using a longest-match
// DP plus double rolling hashes to group occurrences by substring identity.
// The naive reference implementation in naive.go cross-checks it in tests.
func (k *Kast) Compare(a, b token.String) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	av, bv := internPair(a, b)
	return k.compareViews(av, bv)
}

// compareViews runs the kernel over two interned views. The views must have
// been interned over a common literal table (internPair or a shared
// Interner) so that equal literals carry equal ids.
func (k *Kast) compareViews(av, bv seqView) float64 {
	if len(av.ids) == 0 || len(bv.ids) == 0 {
		return 0
	}

	// Longest common extension: LA[i] = longest match starting at A[i]
	// anywhere in B; LB[j] symmetric.
	la, lb := matchLengths(av.ids, bv.ids)

	table := statsTables.Get().(*statsTable)
	defer table.release()

	// Phase 1: register substrings that have a >= cut occurrence, per side.
	// Occurrence weight grows with length at a fixed start, so only lengths
	// >= the minimal qualifying length need registering (for cut <= 1 that
	// is every length). For ViaTotalWeight all occurrences must accumulate,
	// so registration starts at length 1.
	minLen := k.registerFrom
	registerSide(table, av, la, k.CutWeight, k.Viability, sideA, minLen)
	registerSide(table, bv, lb, k.CutWeight, k.Viability, sideB, minLen)

	// Phase 2 (ViaMaxOccurrence only): accumulate the weights of ALL
	// occurrences of registered substrings — including sub-cut occurrences,
	// which count toward feature values once the substring is viable.
	if k.Viability == ViaMaxOccurrence {
		accumulateSide(table, av, la, sideA)
		accumulateSide(table, bv, lb, sideB)
	}

	// Phase 3: per-start maximal viable occurrence length, per side.
	cut := k.CutWeight
	viable := func(st *substringStats) bool { return st.isViable(cut, k.Viability) }
	mvA := maxViableLens(table, av, la, viable)
	mvB := maxViableLens(table, bv, lb, viable)

	// Phase 4: mark substrings with at least one uncovered occurrence.
	markUncovered(table, av, la, mvA, viable)
	markUncovered(table, bv, lb, mvB, viable)

	// Phase 5: inner product over surviving features, accumulated in
	// registration order — a deterministic function of the inputs — so
	// the float sum is bit-identical across runs (map order would not
	// be; iokvet's mapiterorder analyzer enforces this).
	var sum float64
	for i := range table.slab {
		if st := &table.slab[i]; st.uncovered && viable(st) {
			sum += float64(st.sumA) * float64(st.sumB)
		}
	}
	return sum
}

// registerFrom returns the minimal occurrence length to register at start i
// for phase 1.
func (k *Kast) registerFrom(v seqView, i int, maxLen int) int {
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

type side int

const (
	sideA side = iota
	sideB
)

// substringKey identifies a substring by double hash and length; with two
// independent 64-bit rolling hashes keyed together with the length, a
// collision between distinct substrings is vanishingly unlikely
// (~2^-128 per pair) and non-adversarial inputs cannot steer it.
type substringKey struct {
	h1, h2 uint64
	length int32
}

// statsTable is the shared-substring table: the map indexes a slab of
// stats appended in registration order. The order is a deterministic
// function of the two inputs (registration scans positions and lengths in
// fixed order), so iterating the slab — never the map — keeps float
// accumulation bit-identical across runs. Tables are pooled, so a kernel
// evaluation reuses the map buckets and slab of an earlier one instead of
// allocating per substring.
type statsTable struct {
	m    map[substringKey]int32
	slab []substringStats
}

var statsTables = sync.Pool{New: func() any {
	return &statsTable{m: make(map[substringKey]int32)}
}}

// release empties the table and returns it to the pool.
func (t *statsTable) release() {
	clear(t.m)
	t.slab = t.slab[:0]
	statsTables.Put(t)
}

// lookup returns the stats registered for k, or nil.
func (t *statsTable) lookup(k substringKey) *substringStats {
	if i, ok := t.m[k]; ok {
		return &t.slab[i]
	}
	return nil
}

// getOrCreate returns the stats for k, registering a fresh entry in
// insertion order on first sight. The pointer is valid only until the
// next getOrCreate, which may grow the slab.
func (t *statsTable) getOrCreate(k substringKey) *substringStats {
	i, ok := t.m[k]
	if !ok {
		i = int32(len(t.slab))
		t.m[k] = i
		t.slab = append(t.slab, substringStats{})
	}
	return &t.slab[i]
}

type substringStats struct {
	sumA, sumB int64 // total occurrence weight per side
	maxA, maxB int32 // maximal single-occurrence weight per side
	uncovered  bool  // has an occurrence not covered by a longer viable one
}

func (st *substringStats) isViable(cut int, v Viability) bool {
	switch v {
	case ViaTotalWeight:
		return st.sumA >= int64(cut) && st.sumB >= int64(cut)
	default:
		return int(st.maxA) >= cut && int(st.maxB) >= cut
	}
}

// seqView is an interned weighted string with prefix weights and rolling
// hashes for O(1) substring identity.
type seqView struct {
	ids  []int32
	pw   []int // pw[i] = sum of weights of tokens [0, i)
	h1   []uint64
	h2   []uint64
	pow1 []uint64
	pow2 []uint64
}

const (
	hashBase1 = 0x9e3779b97f4a7c15 | 1
	hashBase2 = 0xc2b2ae3d27d4eb4f | 1
)

// internPair interns both strings over a shared literal table and
// precomputes prefix structures.
func internPair(a, b token.String) (seqView, seqView) {
	idOf := make(map[string]int32, len(a)+len(b))
	next := int32(1)
	intern := func(s token.String) seqView {
		n := len(s)
		v := seqView{
			ids:  make([]int32, n),
			pw:   make([]int, n+1),
			h1:   make([]uint64, n+1),
			h2:   make([]uint64, n+1),
			pow1: make([]uint64, n+1),
			pow2: make([]uint64, n+1),
		}
		v.pow1[0], v.pow2[0] = 1, 1
		for i, t := range s {
			id, ok := idOf[t.Literal]
			if !ok {
				id = next
				next++
				idOf[t.Literal] = id
			}
			v.ids[i] = id
			v.pw[i+1] = v.pw[i] + t.Weight
			v.h1[i+1] = v.h1[i]*hashBase1 + uint64(id)
			v.h2[i+1] = v.h2[i]*hashBase2 + uint64(id)
			v.pow1[i+1] = v.pow1[i] * hashBase1
			v.pow2[i+1] = v.pow2[i] * hashBase2
		}
		return v
	}
	return intern(a), intern(b)
}

// key returns the identity key of the substring [i, i+l).
func (v seqView) key(i, l int) substringKey {
	return substringKey{
		h1:     v.h1[i+l] - v.h1[i]*v.pow1[l],
		h2:     v.h2[i+l] - v.h2[i]*v.pow2[l],
		length: int32(l),
	}
}

// weight returns the occurrence weight of the substring [i, i+l).
func (v seqView) weight(i, l int) int { return v.pw[i+l] - v.pw[i] }

// matchLengths computes, for every start position of each sequence, the
// length of the longest substring starting there that also occurs in the
// other sequence, via the classic longest-common-extension DP with rolling
// rows (O(n*m) time, O(m) space).
func matchLengths(a, b []int32) (la, lb []int32) {
	n, m := len(a), len(b)
	la = make([]int32, n)
	lb = make([]int32, m)
	prev := make([]int32, m+1)
	cur := make([]int32, m+1)
	for i := n - 1; i >= 0; i-- {
		ai := a[i]
		for j := m - 1; j >= 0; j-- {
			var e int32
			if ai == b[j] {
				e = prev[j+1] + 1
			}
			cur[j] = e
			if e > la[i] {
				la[i] = e
			}
			if e > lb[j] {
				lb[j] = e
			}
		}
		prev, cur = cur, prev
	}
	return la, lb
}

// registerSide inserts phase-1 qualifying occurrences into the table.
func registerSide(table *statsTable, v seqView, lens []int32, cut int, via Viability, s side, minLenAt func(seqView, int, int) int) {
	for i := range v.ids {
		maxLen := int(lens[i])
		if maxLen == 0 {
			continue
		}
		start := minLenAt(v, i, maxLen)
		for l := start; l <= maxLen; l++ {
			st := table.getOrCreate(v.key(i, l))
			w := v.weight(i, l)
			if s == sideA {
				if via == ViaTotalWeight {
					st.sumA += int64(w)
				}
				if int32(w) > st.maxA {
					st.maxA = int32(w)
				}
			} else {
				if via == ViaTotalWeight {
					st.sumB += int64(w)
				}
				if int32(w) > st.maxB {
					st.maxB = int32(w)
				}
			}
		}
	}
}

// accumulateSide adds the weights of every occurrence of already-registered
// substrings (lookup-only; unregistered substrings cannot become viable).
func accumulateSide(table *statsTable, v seqView, lens []int32, s side) {
	for i := range v.ids {
		maxLen := int(lens[i])
		for l := 1; l <= maxLen; l++ {
			st := table.lookup(v.key(i, l))
			if st == nil {
				continue
			}
			w := int64(v.weight(i, l))
			if s == sideA {
				st.sumA += w
			} else {
				st.sumB += w
			}
		}
	}
}

// maxViableLens returns, per start position, the length of the longest
// viable shared substring starting there (0 if none).
func maxViableLens(table *statsTable, v seqView, lens []int32, viable func(*substringStats) bool) []int32 {
	out := make([]int32, len(v.ids))
	for i := range v.ids {
		for l := int(lens[i]); l >= 1; l-- {
			if st := table.lookup(v.key(i, l)); st != nil && viable(st) {
				out[i] = int32(l)
				break
			}
		}
	}
	return out
}

// markUncovered sets the uncovered flag on every viable substring that has
// at least one occurrence in v not properly contained in a longer viable
// occurrence. An occurrence [i, i+l) is covered iff a viable occurrence
// [i', i'+l') exists with i' <= i, i'+l' >= i+l and l' > l; using the
// farthest reach of viable occurrences per start, that reduces to:
//
//	prefixReach(i-1) >= i+l  (some earlier start covers it), or
//	maxViable[i] > l         (a longer viable occurrence at the same start).
func markUncovered(table *statsTable, v seqView, lens []int32, maxViable []int32, viable func(*substringStats) bool) {
	n := len(v.ids)
	// prefixReach[i] = max over i' <= i of i' + maxViable[i'] (0 when none).
	prefixReach := make([]int32, n)
	var best int32
	for i := 0; i < n; i++ {
		if maxViable[i] > 0 {
			if r := int32(i) + maxViable[i]; r > best {
				best = r
			}
		}
		prefixReach[i] = best
	}
	for i := 0; i < n; i++ {
		maxLen := int(lens[i])
		for l := 1; l <= maxLen; l++ {
			st := table.lookup(v.key(i, l))
			if st == nil || st.uncovered || !viable(st) {
				continue
			}
			end := int32(i + l)
			coveredByEarlier := i > 0 && prefixReach[i-1] >= end
			coveredAtSameStart := maxViable[i] > int32(l)
			if !coveredByEarlier && !coveredAtSameStart {
				st.uncovered = true
			}
		}
	}
}
