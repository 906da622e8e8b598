package sketch

import (
	"math"
	"testing"

	"iokast/internal/token"
	"iokast/internal/xrand"
)

func randString(r *xrand.Rand, n int) token.String {
	lits := []string{"read[4096]", "write[4096]", "write[512]", "lseek+read[4096]", "[HANDLE]", "[LEVEL_UP]"}
	s := make(token.String, n)
	for i := range s {
		s[i] = token.Token{Literal: lits[r.Intn(len(lits))], Weight: 1 + r.Intn(40)}
	}
	return s
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSketchDeterministicAndSeeded(t *testing.T) {
	r := xrand.New(7)
	x := randString(r, 64)
	s := New(Options{Dim: 128, Seed: 42})
	a, b := s.Sketch(x), s.Sketch(x)
	if !bitsEqual(a, b) {
		t.Fatal("same sketcher, same string: sketches differ")
	}
	if !bitsEqual(a, New(Options{Dim: 128, Seed: 42}).Sketch(x)) {
		t.Fatal("fresh sketcher with same options: sketches differ")
	}
	if bitsEqual(a, New(Options{Dim: 128, Seed: 43}).Sketch(x)) {
		t.Fatal("different seed produced an identical sketch")
	}
}

func TestSketchUnitNorm(t *testing.T) {
	r := xrand.New(3)
	s := New(Options{})
	if d := s.Dim(); d != DefaultDim {
		t.Fatalf("default dim = %d, want %d", d, DefaultDim)
	}
	for i := 0; i < 10; i++ {
		vec := s.Sketch(randString(r, 1+r.Intn(100)))
		var sq float64
		for _, v := range vec {
			sq += v * v
		}
		if math.Abs(sq-1) > 1e-9 {
			t.Fatalf("sketch %d has squared norm %v, want 1", i, sq)
		}
	}
	if vec := s.Sketch(nil); Dot(vec, vec) != 0 {
		t.Fatal("empty string should sketch to the zero vector")
	}
}

func TestSketchCosineTracksIdentity(t *testing.T) {
	// A string is most similar to itself and to a light mutation of
	// itself; an unrelated vocabulary should score far lower.
	r := xrand.New(11)
	x := randString(r, 80)
	mutated := x.Clone()
	mutated[5].Weight += 3
	mutated[40].Weight += 2
	other := make(token.String, 80)
	for i := range other {
		other[i] = token.Token{Literal: "mmap[0]", Weight: 1 + r.Intn(40)}
	}
	s := New(Options{Dim: 256})
	sx, sm, so := s.Sketch(x), s.Sketch(mutated), s.Sketch(other)
	if self := Dot(sx, sx); math.Abs(self-1) > 1e-9 {
		t.Fatalf("self cosine = %v", self)
	}
	near, far := Dot(sx, sm), Dot(sx, so)
	if near < 0.9 {
		t.Fatalf("mutated copy cosine = %v, want near 1", near)
	}
	if far > 0.5 || far >= near {
		t.Fatalf("unrelated cosine = %v (near = %v), want clearly lower", far, near)
	}
}

func TestIndexAddRemoveSearch(t *testing.T) {
	r := xrand.New(5)
	s := New(Options{Dim: 64})
	ix := NewIndex(64)
	var vecs [][]float64
	for i := 0; i < 8; i++ {
		vec := s.Sketch(randString(r, 30))
		vecs = append(vecs, vec)
		if err := ix.Add(i, vec); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(ix.Search(vecs[0], -1, -1)); n != 8 {
		t.Fatalf("%d live vectors, want 8", n)
	}
	if err := ix.Add(3, vecs[3]); err == nil {
		t.Fatal("re-adding a live id must fail")
	}
	if err := ix.Add(9, make([]float64, 32)); err == nil {
		t.Fatal("wrong-width vector must be rejected")
	}

	// The best match for vecs[2] is id 2 itself; with 2 excluded the
	// scores must still come back sorted.
	got := ix.Search(vecs[2], -1, -1)
	if got[0].ID != 2 || math.Abs(got[0].Score-1) > 1e-9 {
		t.Fatalf("top hit for own vector = %+v", got[0])
	}
	got = ix.Search(vecs[2], 3, 2)
	if len(got) != 3 {
		t.Fatalf("k=3 returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("results not sorted: %+v", got)
		}
		if got[i].ID == 2 {
			t.Fatal("excluded id returned")
		}
	}

	if !ix.Remove(5) || ix.Remove(5) {
		t.Fatal("Remove should succeed once then report absent")
	}
	for _, c := range ix.Search(vecs[5], -1, -1) {
		if c.ID == 5 {
			t.Fatal("tombstoned id returned by search")
		}
	}
	if ix.Vec(5) != nil {
		t.Fatal("tombstoned vec still readable")
	}
}

func TestIndexEqual(t *testing.T) {
	s := New(Options{Dim: 32})
	build := func(order []int) *Index {
		ix := NewIndex(32)
		rr := xrand.New(99)
		vecs := make([][]float64, 4)
		for i := range vecs {
			vecs[i] = s.Sketch(randString(rr, 20))
		}
		for _, id := range order {
			_ = ix.Add(id, vecs[id])
		}
		ix.Remove(1)
		return ix
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	if !a.Equal(b) {
		t.Fatal("same content, different insertion order: indexes not equal")
	}
	b2 := build([]int{0, 1, 2, 3})
	b2.Remove(2)
	if a.Equal(b2) {
		t.Fatal("different tombstones compare equal")
	}
}
