package tree

import (
	"strings"
	"testing"

	"iokast/internal/trace"
)

func mustParse(t *testing.T, s string) *trace.Trace {
	t.Helper()
	tr, err := trace.ParseString(s)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return tr
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Root: "ROOT", Handle: "HANDLE", Block: "BLOCK", OpNode: "OP"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind rendered %q", got)
	}
}

func TestBuildBasicShape(t *testing.T) {
	tr := mustParse(t, `
open fh=1
write fh=1 bytes=8
write fh=1 bytes=8
close fh=1
`)
	n := Build(tr, BuildOptions{})
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(n.Children) != 1 {
		t.Fatalf("handles = %d, want 1", len(n.Children))
	}
	h := n.Children[0]
	if len(h.Children) != 1 {
		t.Fatalf("blocks = %d, want 1", len(h.Children))
	}
	blk := h.Children[0]
	if len(blk.Children) != 2 {
		t.Fatalf("ops = %d, want 2 (open/close elided)", len(blk.Children))
	}
	for _, c := range blk.Children {
		if c.Name != "write" || c.Bytes != 8 || c.Repeat != 1 {
			t.Fatalf("unexpected leaf %+v", c)
		}
	}
}

func TestBuildGroupsByHandleNotChronology(t *testing.T) {
	// Interleaved handles: ops of the same handle must gather under one
	// HANDLE node even though they are not contiguous in the trace.
	tr := mustParse(t, `
open fh=1
open fh=2
write fh=1 bytes=4
read fh=2 bytes=4
write fh=1 bytes=4
close fh=1
close fh=2
`)
	n := Build(tr, BuildOptions{})
	if len(n.Children) != 2 {
		t.Fatalf("handles = %d, want 2", len(n.Children))
	}
	h1 := n.Children[0].Children[0] // first handle's block
	if got := h1.CountLeaves(); got != 2 {
		t.Fatalf("handle 1 leaves = %d, want 2", got)
	}
	h2 := n.Children[1].Children[0]
	if got := h2.CountLeaves(); got != 1 {
		t.Fatalf("handle 2 leaves = %d, want 1", got)
	}
}

func TestBuildMultipleBlocksPerHandle(t *testing.T) {
	tr := mustParse(t, `
open fh=1
write fh=1 bytes=4
close fh=1
open fh=1
read fh=1 bytes=4
close fh=1
`)
	n := Build(tr, BuildOptions{})
	h := n.Children[0]
	if len(h.Children) != 2 {
		t.Fatalf("blocks = %d, want 2", len(h.Children))
	}
	if h.Children[0].Children[0].Name != "write" || h.Children[1].Children[0].Name != "read" {
		t.Fatal("block contents misplaced")
	}
}

func TestBuildImplicitBlock(t *testing.T) {
	tr := &trace.Trace{Ops: []trace.Op{
		{Name: "read", Handle: 7, Bytes: 16}, // no open
	}}
	n := Build(tr, BuildOptions{})
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if n.CountLeaves() != 1 {
		t.Fatal("op outside open..close was lost")
	}
}

func TestBuildFiltersNegligible(t *testing.T) {
	tr := mustParse(t, `
open fh=1
fileno fh=1
mmap fh=1
write fh=1 bytes=4
fscanf fh=1
read fh=1 bytes=8
close fh=1
`)
	n := Build(tr, BuildOptions{})
	if n.CountLeaves() != 2 {
		t.Fatalf("leaves = %d, want 2", n.CountLeaves())
	}
	n.Walk(func(node *Node, _ int) bool {
		if node.IsLeaf() && trace.DefaultNegligible[node.Name] {
			t.Errorf("negligible op %q survived", node.Name)
		}
		return true
	})
	// Empty non-nil map keeps everything.
	n2 := Build(tr, BuildOptions{Negligible: map[string]bool{}})
	if n2.CountLeaves() != 5 {
		t.Fatalf("unfiltered leaves = %d, want 5", n2.CountLeaves())
	}
	// A custom set replaces the default one, and may name open or close:
	// the ops then land in an implicit block.
	n3 := Build(tr, BuildOptions{Negligible: map[string]bool{"read": true, "open": true}})
	want := "ROOT\n  HANDLE\n    BLOCK\n      fileno[0]\n      mmap[0]\n      write[4]\n      fscanf[0]\n"
	if got := n3.Render(); got != want {
		t.Fatalf("custom set built\n%s\nwant\n%s", got, want)
	}
}

func TestCloneAndEqual(t *testing.T) {
	tr := mustParse(t, `
open fh=1
write fh=1 bytes=8
read fh=1 bytes=4
close fh=1
`)
	n := Build(tr, BuildOptions{})
	c := n.Clone()
	if !n.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Children[0].Children[0].Children[0].Bytes = 99
	if n.Equal(c) {
		t.Fatal("Equal missed a difference")
	}
	if !n.Equal(n) {
		t.Fatal("self equality")
	}
	if n.Equal(nil) {
		t.Fatal("Equal(nil) must be false for non-nil receiver value")
	}
}

func TestCountsAndDepth(t *testing.T) {
	tr := mustParse(t, `
open fh=1
write fh=1 bytes=8
read fh=1 bytes=4
close fh=1
`)
	n := Build(tr, BuildOptions{})
	if n.CountNodes() != 5 { // root + handle + block + 2 leaves
		t.Fatalf("CountNodes = %d, want 5", n.CountNodes())
	}
	if n.Depth() != 4 {
		t.Fatalf("Depth = %d, want 4", n.Depth())
	}
	if n.TotalOps() != 2 {
		t.Fatalf("TotalOps = %d, want 2", n.TotalOps())
	}
	if n.TotalBytes() != 12 {
		t.Fatalf("TotalBytes = %d, want 12", n.TotalBytes())
	}
}

func buildBlock(ops ...*Node) *Node {
	blk := NewInterior(Block, ops...)
	h := NewInterior(Handle, blk)
	return NewInterior(Root, h)
}

func blockOps(root *Node) []*Node {
	return root.Children[0].Children[0].Children
}

func TestRule1CollapsesWholeRun(t *testing.T) {
	root := buildBlock(
		NewOp("read", 8), NewOp("read", 8), NewOp("read", 8), NewOp("read", 8), NewOp("read", 8),
	)
	Compress(root, CompressOptions{Passes: 1})
	ops := blockOps(root)
	if len(ops) != 1 || ops[0].Repeat != 5 || ops[0].Bytes != 8 {
		t.Fatalf("rule 1 produced %s", root.Render())
	}
}

func TestRule2CombinesBytesPairwise(t *testing.T) {
	// read[2] read[4] read[2] read[4] -> pass1: read[6] read[6]
	// -> pass2 rule1: read[6] x2. This is the paper's struct-array example.
	root := buildBlock(
		NewOp("read", 2), NewOp("read", 4), NewOp("read", 2), NewOp("read", 4),
	)
	Compress(root, DefaultCompress())
	ops := blockOps(root)
	if len(ops) != 1 || ops[0].Name != "read" || ops[0].Bytes != 6 || ops[0].Repeat != 2 {
		t.Fatalf("rule 2+1 produced %s", root.Render())
	}
}

func TestRule3TacitCopy(t *testing.T) {
	// Interlaced read/write with the same byte count -> read+write nodes.
	root := buildBlock(
		NewOp("read", 64), NewOp("write", 64), NewOp("read", 64), NewOp("write", 64),
	)
	Compress(root, DefaultCompress())
	ops := blockOps(root)
	if len(ops) != 1 || ops[0].Name != "read+write" || ops[0].Bytes != 64 || ops[0].Repeat != 2 {
		t.Fatalf("rule 3+1 produced %s", root.Render())
	}
}

func TestRule4SeekThenWrite(t *testing.T) {
	root := buildBlock(
		NewOp("lseek", 0), NewOp("write", 512), NewOp("lseek", 0), NewOp("write", 512),
	)
	Compress(root, DefaultCompress())
	ops := blockOps(root)
	if len(ops) != 1 || ops[0].Name != "lseek+write" || ops[0].Bytes != 512 || ops[0].Repeat != 2 {
		t.Fatalf("rule 4+1 produced %s", root.Render())
	}
}

func TestRule4RequiresOneZero(t *testing.T) {
	root := buildBlock(NewOp("read", 8), NewOp("write", 16))
	Compress(root, DefaultCompress())
	if len(blockOps(root)) != 2 {
		t.Fatalf("rule 4 merged non-zero pair: %s", root.Render())
	}
}

func TestRulesRequireEqualRepeats(t *testing.T) {
	a := NewOp("read", 2)
	a.Repeat = 3
	b := NewOp("read", 4) // repeat 1
	root := buildBlock(a, b)
	Compress(root, CompressOptions{Passes: 1})
	if len(blockOps(root)) != 2 {
		t.Fatalf("rule 2 merged unequal repeats: %s", root.Render())
	}
}

func TestZeroPassesIsNoop(t *testing.T) {
	root := buildBlock(NewOp("read", 8), NewOp("read", 8))
	Compress(root, CompressOptions{Passes: 0})
	if len(blockOps(root)) != 2 {
		t.Fatal("Passes=0 compressed anyway")
	}
}

func TestFixpointConverges(t *testing.T) {
	// A long alternation needs several passes to fold completely:
	// (lseek write)^8 -> pass1: (lseek+write)^8 ... rule1 same pass? rule4
	// runs after rule1, so the run collapse happens on pass 2.
	var ops []*Node
	for i := 0; i < 8; i++ {
		ops = append(ops, NewOp("lseek", 0), NewOp("write", 256))
	}
	root := buildBlock(ops...)
	Compress(root, CompressOptions{Passes: -1})
	got := blockOps(root)
	if len(got) != 1 || got[0].Repeat != 8 || got[0].Name != "lseek+write" {
		t.Fatalf("fixpoint produced %s", root.Render())
	}
}

func TestCompressionPreservesTotalOpsUnderRule1(t *testing.T) {
	// A pure run compresses by rule 1 only, so TotalOps is invariant.
	root := buildBlock(NewOp("w", 4), NewOp("w", 4), NewOp("w", 4))
	before := root.TotalOps()
	Compress(root, DefaultCompress())
	if root.TotalOps() != before {
		t.Fatalf("TotalOps changed %d -> %d", before, root.TotalOps())
	}
}

func TestCompressionPreservesTotalBytesRules12(t *testing.T) {
	// Rules 1 and 2 preserve repetition-weighted byte volume.
	root := buildBlock(
		NewOp("read", 2), NewOp("read", 4),
		NewOp("read", 2), NewOp("read", 4),
	)
	before := root.TotalBytes()
	Compress(root, DefaultCompress())
	if root.TotalBytes() != before {
		t.Fatalf("TotalBytes changed %d -> %d", before, root.TotalBytes())
	}
}

func TestCompressLeavesOtherBlocksIndependent(t *testing.T) {
	blk1 := NewInterior(Block, NewOp("read", 8), NewOp("read", 8))
	blk2 := NewInterior(Block, NewOp("write", 8), NewOp("write", 8))
	root := NewInterior(Root, NewInterior(Handle, blk1, blk2))
	Compress(root, DefaultCompress())
	if len(blk1.Children) != 1 || len(blk2.Children) != 1 {
		t.Fatalf("cross-block state leaked: %s", root.Render())
	}
	if blk1.Children[0].Name != "read" || blk2.Children[0].Name != "write" {
		t.Fatal("blocks mixed up")
	}
}

func TestRenderGolden(t *testing.T) {
	tr := mustParse(t, `
open fh=1
write fh=1 bytes=8
write fh=1 bytes=8
close fh=1
`)
	n := Build(tr, BuildOptions{})
	Compress(n, DefaultCompress())
	want := "ROOT\n  HANDLE\n    BLOCK\n      write[8] x2\n"
	if got := n.Render(); got != want {
		t.Fatalf("Render:\n%q\nwant:\n%q", got, want)
	}
}

func TestValidateCatchesBadShapes(t *testing.T) {
	cases := []struct {
		name string
		n    *Node
	}{
		{"non-root top", NewInterior(Handle)},
		{"handle under block", NewInterior(Root, NewInterior(Block))},
		{"op under root", NewInterior(Root, NewOp("x", 0))},
		{"leaf with children", NewInterior(Root, NewInterior(Handle, NewInterior(Block, &Node{Kind: OpNode, Name: "x", Repeat: 1, Children: []*Node{NewOp("y", 0)}})))},
		{"zero repeat leaf", NewInterior(Root, NewInterior(Handle, NewInterior(Block, &Node{Kind: OpNode, Name: "x", Repeat: 0})))},
		{"empty name leaf", NewInterior(Root, NewInterior(Handle, NewInterior(Block, &Node{Kind: OpNode, Repeat: 1})))},
		{"negative bytes", NewInterior(Root, NewInterior(Handle, NewInterior(Block, &Node{Kind: OpNode, Name: "x", Repeat: 1, Bytes: -1})))},
	}
	for _, c := range cases {
		if err := c.n.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid tree", c.name)
		}
	}
}

func TestBuildCompressedMatchesManual(t *testing.T) {
	tr := mustParse(t, `
open fh=1
read fh=1 bytes=8
read fh=1 bytes=8
close fh=1
`)
	a := BuildCompressed(tr, BuildOptions{}, DefaultCompress())
	b := Build(tr, BuildOptions{})
	Compress(b, DefaultCompress())
	if !a.Equal(b) {
		t.Fatal("BuildCompressed differs from Build+Compress")
	}
}

func TestWalkPruning(t *testing.T) {
	tr := mustParse(t, `
open fh=1
read fh=1 bytes=8
close fh=1
`)
	n := Build(tr, BuildOptions{})
	var kinds []Kind
	n.Walk(func(node *Node, depth int) bool {
		kinds = append(kinds, node.Kind)
		return node.Kind != Handle // prune below HANDLE
	})
	if len(kinds) != 2 || kinds[0] != Root || kinds[1] != Handle {
		t.Fatalf("walk visited %v", kinds)
	}
}
