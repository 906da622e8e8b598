package token

import (
	"strings"
	"testing"
	"testing/quick"

	"iokast/internal/trace"
	"iokast/internal/tree"
	"iokast/internal/xrand"
)

func TestTokenString(t *testing.T) {
	tok := Token{Literal: "read[4096]", Weight: 7}
	if tok.String() != "read[4096]:7" {
		t.Fatalf("String = %q", tok.String())
	}
}

func TestIsStructural(t *testing.T) {
	for _, lit := range []string{LitRoot, LitHandle, LitBlock, LitLevelUp} {
		if !(Token{Literal: lit, Weight: 1}).IsStructural() {
			t.Errorf("%s not structural", lit)
		}
	}
	if (Token{Literal: "read[8]", Weight: 1}).IsStructural() {
		t.Error("op token marked structural")
	}
}

func TestOpLiteral(t *testing.T) {
	if OpLiteral("lseek+write", 512) != "lseek+write[512]" {
		t.Fatalf("OpLiteral = %q", OpLiteral("lseek+write", 512))
	}
}

func TestWeightFunctions(t *testing.T) {
	s := String{
		{Literal: "a", Weight: 5},
		{Literal: "b", Weight: 1},
		{Literal: "c", Weight: 4},
	}
	if s.Weight() != 10 {
		t.Fatalf("Weight = %d", s.Weight())
	}
	if s.WeightAtLeast(4) != 9 {
		t.Fatalf("WeightAtLeast(4) = %d, want 9", s.WeightAtLeast(4))
	}
	if s.WeightAtLeast(100) != 0 {
		t.Fatalf("WeightAtLeast(100) = %d, want 0", s.WeightAtLeast(100))
	}
	if s.WeightAtLeast(1) != s.Weight() {
		t.Fatal("WeightAtLeast(1) must equal Weight")
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	s := String{
		{Literal: LitRoot, Weight: 1},
		{Literal: LitHandle, Weight: 1},
		{Literal: LitBlock, Weight: 1},
		{Literal: "write[1024]", Weight: 12},
		{Literal: LitLevelUp, Weight: 3},
		{Literal: "read+write[64]", Weight: 2},
	}
	text := s.Format()
	got, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	if !got.Equal(s) {
		t.Fatalf("round trip: got %v, want %v", got, s)
	}
}

func TestParseErrors(t *testing.T) {
	// A weight is the whole text after the last colon: "5abc" is refused,
	// not read as 5.
	for _, in := range []string{"abc", ":5", "x:", "x:zero", "x:0", "x:-2", "read[4]:5abc"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted invalid input", in)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	s, err := Parse("  \n ")
	if err != nil || len(s) != 0 {
		t.Fatalf("Parse empty = %v, %v", s, err)
	}
}

func TestValidate(t *testing.T) {
	good := String{{Literal: "read[8]", Weight: 1}}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate(good): %v", err)
	}
	bad := []String{
		{{Literal: "", Weight: 1}},
		{{Literal: "x", Weight: 0}},
		{{Literal: "a b", Weight: 1}},
		{{Literal: "a:b", Weight: 1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %v", i, s)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	s := String{{Literal: "x", Weight: 1}}
	c := s.Clone()
	c[0].Weight = 9
	if s[0].Weight != 1 {
		t.Fatal("Clone shares backing array effects")
	}
}

func mustTrace(t *testing.T, text string) *trace.Trace {
	t.Helper()
	tr, err := trace.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFromTreeGolden mirrors the paper's Fig. 1/2 conversion on a small
// two-handle pattern.
func TestFromTreeGolden(t *testing.T) {
	tr := mustTrace(t, `
open fh=1
write fh=1 bytes=8
write fh=1 bytes=8
close fh=1
open fh=2
read fh=2 bytes=4
close fh=2
`)
	root := tree.BuildCompressed(tr, tree.BuildOptions{}, tree.DefaultCompress())
	s := FromTree(root)
	want := "[ROOT]:1 [HANDLE]:1 [BLOCK]:1 write[8]:2 [LEVEL_UP]:3 [HANDLE]:1 [BLOCK]:1 read[4]:1"
	if got := s.Format(); got != want {
		t.Fatalf("FromTree:\n got %q\nwant %q", got, want)
	}
}

func TestFromTreeSiblingLeavesLevelUpOne(t *testing.T) {
	blk := tree.NewInterior(tree.Block, tree.NewOp("a", 1), tree.NewOp("b", 2))
	root := tree.NewInterior(tree.Root, tree.NewInterior(tree.Handle, blk))
	s := FromTree(root)
	want := "[ROOT]:1 [HANDLE]:1 [BLOCK]:1 a[1]:1 [LEVEL_UP]:1 b[2]:1"
	if got := s.Format(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestFromTreeMultipleBlocks(t *testing.T) {
	h := tree.NewInterior(tree.Handle,
		tree.NewInterior(tree.Block, tree.NewOp("w", 8)),
		tree.NewInterior(tree.Block, tree.NewOp("r", 4)),
	)
	root := tree.NewInterior(tree.Root, h)
	s := FromTree(root)
	want := "[ROOT]:1 [HANDLE]:1 [BLOCK]:1 w[8]:1 [LEVEL_UP]:2 [BLOCK]:1 r[4]:1"
	if got := s.Format(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestFromTreeNoTrailingLevelUp(t *testing.T) {
	tr := mustTrace(t, "open fh=1\nwrite fh=1 bytes=8\nclose fh=1\n")
	s := FromTree(tree.Build(tr, tree.BuildOptions{}))
	if s[len(s)-1].Literal == LitLevelUp {
		t.Fatalf("trailing LEVEL_UP in %q", s.Format())
	}
}

func TestFromTreeEmptyRoot(t *testing.T) {
	s := FromTree(tree.NewInterior(tree.Root))
	if len(s) != 1 || s[0].Literal != LitRoot {
		t.Fatalf("empty tree = %v", s)
	}
}

func TestFromTreeRepeatBecomesWeight(t *testing.T) {
	op := tree.NewOp("write", 64)
	op.Repeat = 17
	blk := tree.NewInterior(tree.Block, op)
	root := tree.NewInterior(tree.Root, tree.NewInterior(tree.Handle, blk))
	s := FromTree(root)
	if s[3].Weight != 17 || s[3].Literal != "write[64]" {
		t.Fatalf("leaf token = %v", s[3])
	}
}

// randomTree builds a random valid pattern tree for property tests.
func randomTree(r *xrand.Rand) *tree.Node {
	root := tree.NewInterior(tree.Root)
	for h := 0; h < r.IntRange(1, 3); h++ {
		hn := tree.NewInterior(tree.Handle)
		for b := 0; b < r.IntRange(1, 3); b++ {
			bn := tree.NewInterior(tree.Block)
			for o := 0; o < r.IntRange(0, 5); o++ {
				op := tree.NewOp("op"+string(rune('a'+r.Intn(4))), int64(r.Intn(4)*512))
				op.Repeat = r.IntRange(1, 9)
				bn.Children = append(bn.Children, op)
			}
			hn.Children = append(hn.Children, bn)
		}
		root.Children = append(root.Children, hn)
	}
	return root
}

// Property: the serialised string always parses back and is valid, and its
// number of non-structural tokens equals the number of leaves.
func TestFromTreeQuickInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		root := randomTree(r)
		s := FromTree(root)
		if err := s.Validate(); err != nil {
			return false
		}
		parsed, err := Parse(s.Format())
		if err != nil || !parsed.Equal(s) {
			return false
		}
		ops := 0
		for _, tok := range s {
			if !tok.IsStructural() {
				ops++
			}
		}
		return ops == root.CountLeaves()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: level bookkeeping. Starting at depth 0, each token after the
// first implies depth+1, and each [LEVEL_UP]:w token first pops w levels.
// The depth must stay within [0, 3] for a 4-level pattern tree and every
// [LEVEL_UP] weight must be in [1, 3].
func TestFromTreeQuickDepthBookkeeping(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		s := FromTree(randomTree(r))
		depth := 0
		for i, tok := range s {
			if tok.Literal == LitLevelUp {
				if tok.Weight < 1 || tok.Weight > 3 {
					return false
				}
				depth -= tok.Weight
				if depth < 0 {
					return false
				}
				continue
			}
			if i > 0 {
				depth++
			}
			if depth < 0 || depth > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: total string weight of the ops equals TotalOps of the tree.
func TestFromTreeQuickWeightConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		root := randomTree(r)
		s := FromTree(root)
		opWeight := 0
		for _, tok := range s {
			if !tok.IsStructural() {
				opWeight += tok.Weight
			}
		}
		return opWeight == root.TotalOps()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLiteralsOrder(t *testing.T) {
	s := String{{Literal: "x", Weight: 1}, {Literal: "y", Weight: 2}}
	lits := s.Literals()
	if strings.Join(lits, ",") != "x,y" {
		t.Fatalf("Literals = %v", lits)
	}
}

// FromTree sizes its string exactly: no capacity goes unused.
func TestFromTreeExactCapacity(t *testing.T) {
	for _, root := range []*tree.Node{
		tree.NewInterior(tree.Root),
		tree.NewInterior(tree.Root, tree.NewInterior(tree.Handle, tree.NewInterior(tree.Block))),
		tree.NewInterior(tree.Root,
			tree.NewInterior(tree.Handle, tree.NewInterior(tree.Block, tree.NewOp("read", 1), tree.NewOp("write", 2)), tree.NewInterior(tree.Block)),
			tree.NewInterior(tree.Handle, tree.NewInterior(tree.Block, tree.NewOp("lseek", 0)))),
	} {
		if s := FromTree(root); len(s) != cap(s) {
			t.Errorf("FromTree gave %d tokens in a capacity of %d: %v", len(s), cap(s), s)
		}
	}
}
