package core

import (
	"fmt"
	"sort"
	"testing"

	"iokast/internal/iogen"
	"iokast/internal/token"
	"iokast/internal/xrand"
)

// checkRow runs CompareRow for q against cands, with cands[:split] first
// in their pairs, after ordering each orientation by shape the way the
// engine does, and fails on any value that differs from ComparePrepared in
// a single bit. It returns the number of derived values.
func checkRow(t *testing.T, k *Kast, q *Prepared, cands []*Prepared, split int) int {
	t.Helper()
	cands = append([]*Prepared(nil), cands...)
	byShape := func(ps []*Prepared) {
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].Shape() < ps[j].Shape() })
	}
	byShape(cands[:split])
	byShape(cands[split:])
	out := make([]float64, len(cands))
	derived := k.CompareRow(q, cands, split, out)
	for i, c := range cands {
		want := k.ComparePrepared(q, c)
		if i < split {
			want = k.ComparePrepared(c, q)
		}
		if out[i] != want {
			t.Fatalf("%s: candidate %d of %d (split %d) = %v, pairwise %v\nq=%s\nc=%s",
				k.Name(), i, len(cands), split, out[i], want, q.String().Format(), c.String().Format())
		}
	}
	if derived < 0 || derived > len(cands) {
		t.Fatalf("%s: derived %d of %d values", k.Name(), derived, len(cands))
	}
	return derived
}

// rowKernels are the kernels the row checks cover: cut 0 to 6 and 64, both
// viabilities.
func rowKernels() []*Kast {
	var ks []*Kast
	for _, cut := range []int{0, 1, 2, 3, 4, 5, 6, 64} {
		for _, via := range []Viability{ViaMaxOccurrence, ViaTotalWeight} {
			ks = append(ks, &Kast{CutWeight: cut, Viability: via})
		}
	}
	return ks
}

// reweighted returns n strings of x's shape whose weights are drawn from
// [lo, hi].
func reweighted(r *xrand.Rand, x token.String, n, lo, hi int) []token.String {
	out := make([]token.String, n)
	for i := range out {
		s := x.Clone()
		for j := range s {
			s[j].Weight = r.IntRange(lo, hi)
		}
		out[i] = s
	}
	return out
}

// FuzzKastRowMatchesPairwise builds a query and a row of candidates drawn
// from one to three shapes (alphabet 4, up to 14 tokens, weights 1..6) and
// requires every CompareRow value to equal ComparePrepared bit for bit, at
// cut 0..6 under both viabilities and in both orientations.
func FuzzKastRowMatchesPairwise(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 1, 4, 0, 1, 2, 3, 9, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), false, uint8(3))
	f.Add([]byte{2, 5, 0, 1, 0, 1, 0, 2, 1, 1, 3, 2, 2, 3, 0, 1, 0, 5, 5, 5, 1, 1, 1, 6, 6, 6, 2, 2}, uint8(4), false, uint8(0))
	f.Add([]byte{1, 13, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 7, 7, 7, 7, 7, 7, 1, 2, 3}, uint8(6), true, uint8(9))
	f.Add([]byte{0, 1, 3, 1, 3, 21, 5, 4, 3, 2, 1, 0}, uint8(0), false, uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8, total bool, split uint8) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		lit := func() string { return string(rune('a' + next()%4)) }
		shapes := make([][]string, 1+next()%3)
		for i := range shapes {
			shapes[i] = make([]string, 1+next()%14)
			for j := range shapes[i] {
				shapes[i][j] = lit()
			}
		}
		in := NewInterner()
		q := make(token.String, 1+next()%14)
		for i := range q {
			q[i] = token.Token{Literal: lit(), Weight: 1 + next()%6}
		}
		qp := in.Prepare(q)
		cands := make([]*Prepared, 2+next()%22)
		for i := range cands {
			lits := shapes[next()%len(shapes)]
			c := make(token.String, len(lits))
			for j, l := range lits {
				c[j] = token.Token{Literal: l, Weight: 1 + next()%6}
			}
			cands[i] = in.Prepare(c)
		}
		via := ViaMaxOccurrence
		if total {
			via = ViaTotalWeight
		}
		k := &Kast{CutWeight: int(cut % 7), Viability: via}
		checkRow(t, k, qp, cands, int(split)%(len(cands)+1))
	})
}

// Rows of workload traces, periodic strings and reweighted copies of both
// equal the pairwise values, and the class dot product serves some of
// them.
func TestKastRowMatchesPairwise(t *testing.T) {
	r := xrand.New(18)
	var xs []token.String
	for i := 0; i < 36; i++ {
		tr, err := iogen.GenerateExtended(iogen.LoadCategories[i%len(iogen.LoadCategories)], r)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, Convert(tr, Options{}))
	}
	for _, p := range []token.String{periodic(1, 20, 0), periodic(2, 17, 1), periodic(3, 24, 2)} {
		xs = append(xs, p)
		xs = append(xs, reweighted(r, p, 6, 1, 5)...)
	}
	xs = append(xs, reweighted(r, xs[0], 6, 1, 3)...)
	in := NewInterner()
	ps := make([]*Prepared, len(xs))
	for i, x := range xs {
		ps[i] = in.Prepare(x)
	}
	derived := map[string]int{}
	for _, k := range rowKernels() {
		for qi := 0; qi < len(ps); qi += 5 {
			// By-id orientation: lower index first in every pair.
			var lower, higher []*Prepared
			for ci, c := range ps {
				switch {
				case ci < qi:
					lower = append(lower, c)
				case ci > qi:
					higher = append(higher, c)
				}
			}
			derived[k.Name()] += checkRow(t, k, ps[qi], append(lower, higher...), len(lower))
			// Trace orientation: the query first in every pair.
			eph := in.PrepareEphemeral(xs[qi])
			derived[k.Name()] += checkRow(t, k, eph, ps, 0)
		}
	}
	for _, name := range []string{"kast(cut=0,maxocc)", "kast(cut=2,maxocc)", "kast(cut=4,maxocc)"} {
		if derived[name] == 0 {
			t.Errorf("%s: no value was derived by a dot product", name)
		}
	}
	if d := derived["kast(cut=2,total)"]; d != 0 {
		t.Errorf("ViaTotalWeight: %d values derived, want 0", d)
	}
}

// Weights too heavy for the dot product to be proven exact send every
// candidate to a full evaluation, which still equals the pairwise value:
// near 2^40 the views are not linear (a peak would not fit an int32), and
// near 2^26 they are but max(coef)·Σw passes 2^53.
func TestKastRowHeavyWeights(t *testing.T) {
	r := xrand.New(40)
	base := periodic(2, 9, 0)
	for _, w := range []int{1 << 40, 1 << 26} {
		t.Run(fmt.Sprint(w), func(t *testing.T) {
			in := NewInterner()
			q := in.Prepare(reweighted(r, base, 1, w, w+5)[0])
			var cands []*Prepared
			for _, c := range reweighted(r, base, 8, w, w+5) {
				cands = append(cands, in.Prepare(c))
			}
			for _, k := range rowKernels() {
				if d := checkRow(t, k, q, cands, 3); d != 0 {
					t.Fatalf("%s: %d values derived at weight %d", k.Name(), d, w)
				}
			}
		})
	}
	// One light candidate among heavy ones: the guard refuses per
	// candidate, not per row.
	in := NewInterner()
	q := in.Prepare(reweighted(r, base, 1, 1, 3)[0])
	var cands []*Prepared
	for i, c := range reweighted(r, base, 8, 1, 3) {
		if i%3 == 1 {
			c = reweighted(r, base, 1, 1<<40, 1<<40)[0]
		}
		cands = append(cands, in.Prepare(c))
	}
	for _, k := range rowKernels() {
		checkRow(t, k, q, cands, 0)
	}
}

// Strings of equal literal sequences share one shape and one id array;
// ephemeral views add no shape.
func TestInternerShapes(t *testing.T) {
	in := NewInterner()
	a := in.Prepare(ws("x", 1, "y", 2))
	b := in.Prepare(ws("x", 5, "y", 1))
	if a.Shape() != 0 || b.Shape() != 0 || !sameIDs(a.view.ids, b.view.ids) {
		t.Fatalf("equal literals: shapes %d, %d, shared ids %v", a.Shape(), b.Shape(), sameIDs(a.view.ids, b.view.ids))
	}
	if e := in.PrepareEphemeral(ws("y", 1, "x", 1)); e.Shape() != -1 {
		t.Fatalf("ephemeral view has shape %d", e.Shape())
	}
	c := in.Prepare(ws("x", 1, "y", 2, "x", 1))
	d := in.Prepare(ws("y", 3, "x", 3))
	if c.Shape() != 1 || d.Shape() != 2 {
		t.Fatalf("new shapes numbered %d, %d, want 1, 2", c.Shape(), d.Shape())
	}
	if sameIDs(a.view.ids, d.view.ids) {
		t.Fatal("different literal sequences share ids")
	}
}
