package core

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"iokast/internal/iogen"
	"iokast/internal/kernel"
	"iokast/internal/token"
	"iokast/internal/xrand"
)

func ws(pairs ...any) token.String {
	var s token.String
	for i := 0; i < len(pairs); i += 2 {
		s = append(s, token.Token{Literal: pairs[i].(string), Weight: pairs[i+1].(int)})
	}
	return s
}

// paperExample reconstructs strings with exactly the quantities of the
// paper's worked example (§3.2, Figs. 3-5): three shared substrings S1 =
// (a b c), S2 = (d e), S3 = (f) with per-string feature weights {19, 13,
// 15} and {35, 11, 14}, weight_{>=4}(A) = 64 and weight_{>=4}(B) = 52.
// Unique separator tokens (u*, x*, y*) prevent any other shared substring
// from becoming viable at cut weight 4.
func paperExample() (a, b token.String) {
	a = ws(
		"a", 5, "b", 7, "c", 7, // S1 in A: 19
		"u", 22, // filler unique to A, >= 4 so it counts toward weight(A)
		"d", 3, "e", 4, // S2 occurrence 1: 7
		"x1", 1,
		"d", 2, "e", 4, // S2 occurrence 2: 6
		"x2", 1,
		"f", 6, // S3 occurrence 1
		"x3", 2,
		"f", 9, // S3 occurrence 2
	)
	b = ws(
		"a", 2, "b", 7, "c", 8, // S1 in B, occurrence 1: 17
		"y1", 1,
		"a", 3, "b", 7, "c", 8, // S1 in B, occurrence 2: 18
		"y2", 1,
		"d", 2, "e", 4, // S2 occurrence 1: 6
		"y3", 1,
		"d", 1, "e", 4, // S2 occurrence 2: 5
		"y4", 1,
		"f", 8, // S3 occurrence 1
		"y5", 1,
		"f", 6, // S3 occurrence 2
	)
	return a, b
}

// TestKastPaperWorkedExample is experiment E1: it reproduces every number
// of the paper's §3.2 example.
func TestKastPaperWorkedExample(t *testing.T) {
	a, b := paperExample()

	if got := a.WeightAtLeast(4); got != 64 {
		t.Fatalf("weight_{>=4}(A) = %d, want 64 (Eq. 1)", got)
	}
	if got := b.WeightAtLeast(4); got != 52 {
		t.Fatalf("weight_{>=4}(B) = %d, want 52 (Eq. 2)", got)
	}

	k := &Kast{CutWeight: 4}
	if got := k.Compare(a, b); got != 1018 {
		t.Fatalf("k_{w>=4}(A,B) = %v, want 1018 (Eq. 11)", got)
	}

	n := PaperNormalized{K: k}
	want := 1018.0 / 3328.0 // = 0.3059 (Eq. 13)
	if got := n.Compare(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("normalised = %v, want %v", got, want)
	}
	if math.Abs(n.Compare(a, b)-0.3059) > 0.0001 {
		t.Fatalf("normalised = %v, want 0.3059 to 4 decimals", n.Compare(a, b))
	}
}

// The naive reference must agree on the worked example too.
func TestNaiveKastPaperWorkedExample(t *testing.T) {
	a, b := paperExample()
	k := &NaiveKast{CutWeight: 4}
	if got := k.Compare(a, b); got != 1018 {
		t.Fatalf("naive k = %v, want 1018", got)
	}
}

func TestKastEmptyStrings(t *testing.T) {
	k := &Kast{CutWeight: 2}
	if k.Compare(nil, nil) != 0 || k.Compare(ws("a", 1), nil) != 0 || k.Compare(nil, ws("a", 1)) != 0 {
		t.Fatal("empty strings must give 0")
	}
}

func TestKastDisjointAlphabets(t *testing.T) {
	k := &Kast{CutWeight: 1}
	if got := k.Compare(ws("a", 5, "b", 5), ws("c", 5, "d", 5)); got != 0 {
		t.Fatalf("disjoint strings = %v, want 0", got)
	}
}

func TestKastIdenticalStringsSelfKernel(t *testing.T) {
	// For cut <= total weight, the only feature of (a, a) is the maximal
	// shared substring — the whole string — so k(a,a) = Weight(a)^2.
	a := ws("x", 3, "y", 2, "x", 3, "z", 1)
	k := &Kast{CutWeight: 2}
	w := float64(a.Weight())
	if got := k.Compare(a, a); got != w*w {
		t.Fatalf("self kernel = %v, want %v", got, w*w)
	}
}

func TestKastSelfBelowCutIsZero(t *testing.T) {
	a := ws("x", 1, "y", 1) // total weight 2
	k := &Kast{CutWeight: 10}
	if got := k.Compare(a, a); got != 0 {
		t.Fatalf("self kernel below cut = %v, want 0", got)
	}
}

func TestKastRepeatedSubstringCounts(t *testing.T) {
	// "m" (weight 5) occurs twice in a, once in b, with unique separators,
	// so the feature value is 10 * 5 = 50.
	a := ws("m", 5, "s1", 1, "m", 5)
	b := ws("m", 5)
	k := &Kast{CutWeight: 4}
	if got := k.Compare(a, b); got != 50 {
		t.Fatalf("Compare = %v, want 50", got)
	}
}

func TestKastCoveredSubstringExcluded(t *testing.T) {
	// (p q) is shared and viable, but every occurrence of (p) and (q) sits
	// inside a (p q) occurrence in both strings, so only (p q) is a
	// feature: k = 8 * 8 = 64.
	a := ws("p", 4, "q", 4)
	b := ws("p", 4, "q", 4)
	k := &Kast{CutWeight: 4}
	if got := k.Compare(a, b); got != 64 {
		t.Fatalf("Compare = %v, want 64", got)
	}
}

func TestKastIndependentOccurrenceSurvives(t *testing.T) {
	// (p) also occurs OUTSIDE the shared (p q) region in a, so (p) has an
	// uncovered occurrence and becomes a feature alongside (p q).
	// Features: (p q): (8)*(8) = 64; (p): (4+4)*(4) = 32. Total 96.
	a := ws("p", 4, "q", 4, "z", 1, "p", 4)
	b := ws("p", 4, "q", 4)
	k := &Kast{CutWeight: 4}
	if got := k.Compare(a, b); got != 96 {
		t.Fatalf("Compare = %v, want 96", got)
	}
}

func TestKastCutWeightGates(t *testing.T) {
	a := ws("a", 1, "b", 1)
	b := ws("a", 1, "b", 1)
	low := &Kast{CutWeight: 2}
	if low.Compare(a, b) == 0 {
		t.Fatal("cut 2 should accept the weight-2 shared substring")
	}
	high := &Kast{CutWeight: 3}
	if got := high.Compare(a, b); got != 0 {
		t.Fatalf("cut 3 = %v, want 0", got)
	}
}

func TestKastViaTotalWeight(t *testing.T) {
	// (m) occurs 3 times with weight 2 in each string: no single occurrence
	// reaches cut 5, but the total (6) does.
	a := ws("m", 2, "x", 1, "m", 2, "y", 1, "m", 2)
	b := ws("m", 2, "p", 1, "m", 2, "q", 1, "m", 2)
	maxOcc := &Kast{CutWeight: 5, Viability: ViaMaxOccurrence}
	if got := maxOcc.Compare(a, b); got != 0 {
		t.Fatalf("maxocc = %v, want 0", got)
	}
	total := &Kast{CutWeight: 5, Viability: ViaTotalWeight}
	if got := total.Compare(a, b); got != 36 { // 6 * 6
		t.Fatalf("total = %v, want 36", got)
	}
}

func TestKastNames(t *testing.T) {
	if (&Kast{CutWeight: 2}).Name() != "kast(cut=2,maxocc)" {
		t.Fatalf("name = %q", (&Kast{CutWeight: 2}).Name())
	}
	if (&NaiveKast{CutWeight: 3, Viability: ViaTotalWeight}).Name() != "kast-naive(cut=3,total)" {
		t.Fatalf("naive name = %q", (&NaiveKast{CutWeight: 3, Viability: ViaTotalWeight}).Name())
	}
	if Viability(9).String() != "unknown" {
		t.Fatal("unknown viability name")
	}
}

func randString(r *xrand.Rand, maxLen, alphabet int) token.String {
	n := r.IntRange(0, maxLen)
	s := make(token.String, n)
	for i := range s {
		s[i] = token.Token{
			Literal: string(rune('a' + r.Intn(alphabet))),
			Weight:  r.IntRange(1, 6),
		}
	}
	return s
}

// Property: the optimised kernel agrees exactly with the executable
// specification, across cut weights and viability variants. Small alphabet
// forces overlapping and nested matches.
func TestQuickKastMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		a := randString(r, 14, 3)
		b := randString(r, 14, 3)
		for _, cut := range []int{1, 2, 4, 7} {
			for _, via := range []Viability{ViaMaxOccurrence, ViaTotalWeight} {
				fast := (&Kast{CutWeight: cut, Viability: via}).Compare(a, b)
				slow := (&NaiveKast{CutWeight: cut, Viability: via}).Compare(a, b)
				if fast != slow {
					t.Logf("seed=%d cut=%d via=%v fast=%v slow=%v\na=%s\nb=%s",
						seed, cut, via, fast, slow, a.Format(), b.Format())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetry.
func TestQuickKastSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		a := randString(r, 20, 4)
		b := randString(r, 20, 4)
		k := &Kast{CutWeight: 2}
		return k.Compare(a, b) == k.Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: non-negativity (feature values are products of non-negative
// sums).
func TestQuickKastNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		a := randString(r, 20, 3)
		b := randString(r, 20, 3)
		return (&Kast{CutWeight: 3}).Compare(a, b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: self kernel equals squared weight when viable (see
// TestKastIdenticalStringsSelfKernel for the reasoning).
func TestQuickKastSelfKernel(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		a := randString(r, 15, 3)
		if len(a) == 0 {
			return true
		}
		k := &Kast{CutWeight: 2}
		w := float64(a.Weight())
		want := w * w
		if a.Weight() < 2 {
			want = 0
		}
		return k.Compare(a, a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineNormalizedKastSelfIsOne(t *testing.T) {
	a := ws("a", 3, "b", 4, "a", 3)
	n := kernel.Normalized{K: &Kast{CutWeight: 2}}
	if got := n.Compare(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("cosine self = %v", got)
	}
}

func TestNormalizeGramPaperMatchesPairwise(t *testing.T) {
	r := xrand.New(11)
	xs := make([]token.String, 6)
	for i := range xs {
		xs[i] = randString(r, 12, 3)
	}
	k := &Kast{CutWeight: 2}
	g := kernel.Gram(k, xs)
	norm, err := NormalizeGramPaper(g, xs, k.CutWeight)
	if err != nil {
		t.Fatal(err)
	}
	p := PaperNormalized{K: k}
	for i := range xs {
		for j := range xs {
			if math.Abs(norm.At(i, j)-p.Compare(xs[i], xs[j])) > 1e-12 {
				t.Fatalf("paper norm mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestNormalizeGramPaperShapeError(t *testing.T) {
	g := kernel.Gram(&Kast{}, []token.String{ws("a", 1)})
	if _, err := NormalizeGramPaper(g, nil, 1); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestPaperNormalizedZeroWeight(t *testing.T) {
	// All token weights below cut: weight_{>=c} is 0, normalised value 0.
	a := ws("a", 1)
	b := ws("a", 1)
	p := PaperNormalized{K: &Kast{CutWeight: 5}}
	if got := p.Compare(a, b); got != 0 {
		t.Fatalf("zero-weight normalised = %v", got)
	}
}

// The random-string property test uses synthetic alphabets; this test
// cross-checks the optimised kernel against the executable specification
// on strings produced by the real pipeline (structural tokens, compound
// literals, heavy run weights).
func TestKastMatchesNaiveOnPipelineStrings(t *testing.T) {
	traces := []string{
		`open fh=1
write fh=1 bytes=96
write fh=1 bytes=96
write fh=1 bytes=8
write fh=1 bytes=32768
write fh=1 bytes=32768
close fh=1`,
		`open fh=1
read fh=1 bytes=512
lseek fh=1
read fh=1 bytes=4096
lseek fh=1
read fh=1 bytes=4096
lseek fh=1
write fh=1 bytes=4096
write fh=1 bytes=512
close fh=1`,
		`open fh=1
read fh=1 bytes=512
read fh=1 bytes=65536
read fh=1 bytes=65536
write fh=1 bytes=65536
write fh=1 bytes=512
close fh=1
open fh=2
read fh=2 bytes=65536
write fh=2 bytes=65536
close fh=2`,
	}
	var xs []token.String
	for _, text := range traces {
		tr := mustTrace(t, text)
		xs = append(xs, Convert(tr, Options{}))
		xs = append(xs, Convert(tr, Options{IgnoreBytes: true}))
	}
	// Workload-shaped strings: the request bodies the server compares.
	r := xrand.New(7)
	for i := 0; i < 6; i++ {
		tr, err := iogen.GenerateExtended(iogen.LoadCategories[i%len(iogen.LoadCategories)], r)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, Convert(tr, Options{}))
	}
	// Periodic strings: every substring recurs, and a position of one
	// string has several equally long best matches in the other, which
	// exercises naming each shared substring by its first occurrence.
	xs = append(xs, periodic(1, 40, 0), periodic(2, 41, 0), periodic(2, 38, 1),
		periodic(3, 40, 0), periodic(3, 39, 2), periodic(3, 12, 1))
	in := NewInterner()
	preps := make([]*Prepared, len(xs))
	for i, x := range xs {
		preps[i] = in.Prepare(x)
	}
	for _, cut := range []int{1, 2, 4, 8, 64} {
		fast := &Kast{CutWeight: cut}
		slow := &NaiveKast{CutWeight: cut}
		for i := range xs {
			for j := range xs {
				f, s := fast.Compare(xs[i], xs[j]), slow.Compare(xs[i], xs[j])
				if f != s {
					t.Fatalf("cut=%d pair(%d,%d): fast %v != naive %v\nx=%s\ny=%s",
						cut, i, j, f, s, xs[i].Format(), xs[j].Format())
				}
				if p := fast.ComparePrepared(preps[i], preps[j]); p != s {
					t.Fatalf("cut=%d pair(%d,%d): prepared %v != naive %v\nx=%s\ny=%s",
						cut, i, j, p, s, xs[i].Format(), xs[j].Format())
				}
			}
		}
	}
}

// periodic returns n tokens cycling through the first period literals of
// "pqr" from phase on, with weights 1..5 in a pattern of period 5.
func periodic(period, n, phase int) token.String {
	s := make(token.String, n)
	for i := range s {
		s[i] = token.Token{Literal: string(rune('p' + (i+phase)%period)), Weight: 1 + (7*i+phase)%5}
	}
	return s
}

// kernel.Gram evaluates the Kast kernel over views prepared once per
// string (Kast.PrepareAll); every cell must equal the pairwise Compare bit
// for bit, empty strings included.
func TestKastGramMatchesCompare(t *testing.T) {
	r := xrand.New(5)
	xs := []token.String{nil, periodic(2, 9, 0)}
	for i := 0; i < 8; i++ {
		xs = append(xs, randString(r, 14, 3))
	}
	for _, k := range []*Kast{{CutWeight: 2}, {CutWeight: 6}, {CutWeight: 5, Viability: ViaTotalWeight}} {
		g := kernel.Gram(k, xs)
		for i := range xs {
			for j := range xs {
				if got, want := g.At(i, j), k.Compare(xs[i], xs[j]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Gram(%d,%d) = %v, Compare = %v", k.Name(), i, j, got, want)
				}
			}
		}
	}
}

// Evaluations share pooled working memory. Concurrent ones over strings
// of different lengths must neither race nor change any value.
func TestKastConcurrentComparePrepared(t *testing.T) {
	r := xrand.New(9)
	in := NewInterner()
	var ps []*Prepared
	for i := 0; i < 12; i++ {
		ps = append(ps, in.Prepare(randString(r, 24, 3)))
	}
	k := &Kast{CutWeight: 2}
	want := make([][]float64, len(ps))
	for i := range ps {
		for j := range ps {
			want[i] = append(want[i], k.ComparePrepared(ps[i], ps[j]))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for i := range ps {
					for j := range ps {
						if got := k.ComparePrepared(ps[i], ps[j]); got != want[i][j] {
							t.Errorf("pair(%d,%d) = %v concurrently, %v alone", i, j, got, want[i][j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// High weights must not overflow the feature arithmetic: weights in the
// hundreds of thousands square into the 1e10 range, well within float64
// and int64 capacity, and the kernel must stay finite and exact.
func TestKastLargeWeights(t *testing.T) {
	a := ws("w", 500000, "x", 1, "w", 400000)
	b := ws("w", 300000)
	k := &Kast{CutWeight: 2}
	got := k.Compare(a, b)
	want := float64(500000+400000) * float64(300000)
	if got != want {
		t.Fatalf("large-weight kernel %v, want %v", got, want)
	}
}
