package tree

import (
	"iokast/internal/trace"
)

// BuildOptions configure trace-to-tree conversion.
type BuildOptions struct {
	// Negligible is the set of operation names skipped while building.
	// nil means trace.DefaultNegligible; an empty (non-nil) map keeps
	// everything.
	Negligible map[string]bool
	// IgnoreBytes reads every byte count as zero, the paper's
	// byte-ignoring variant ("ignoring is made by assuming all byte values
	// are zero"): the leaves, and the compression rules that run on them,
	// carry no byte information. The trace itself is not modified.
	IgnoreBytes bool
}

// Build converts a trace into an uncompressed pattern tree.
//
// Grouping follows §3.1 of the paper: all operations of one handle gather
// under a single HANDLE node (in order of the handle's first appearance);
// within a handle, a BLOCK node spans each open..close pair. The open and
// close operations themselves are elided — "the BLOCK node already plays the
// role of a delimiter". Operations appearing on a handle outside any
// open..close span (tolerated even though Validate on the trace rejects
// them) are placed in an implicit block so no information is lost.
func Build(t *trace.Trace, opt BuildOptions) *Node {
	return BuildCompressed(t, opt, CompressOptions{})
}

// BuildCompressed builds the tree and applies the compression step with the
// given options. This is the conversion used by the end-to-end pipeline.
func BuildCompressed(t *trace.Trace, bopt BuildOptions, copt CompressOptions) *Node {
	b := NewBuilder(bopt, copt)
	for _, op := range t.Ops {
		b.Add(op)
	}
	return b.Finish()
}

// Builder builds a pattern tree from operations handed to it one at a
// time, in trace order, with Build's grouping. When copt compresses
// (Passes != 0) it applies merge rule 1 as each operation arrives: an
// operation with the name and byte count of the last leaf of its block
// adds one to that leaf's repetition count instead of making a leaf.
//
// The result is the tree BuildCompressed's two steps give. Rule 1 is the
// first step of every pass, and it only looks at adjacent leaves of one
// block, so the leaf lists built here are the lists pass 1's rule 1 would
// make; that rule then merges nothing, and rules 2-4 see the same leaves.
// Negligible operations are skipped before the comparison, so they break
// no run, and a close ends its block, so runs never span one.
type Builder struct {
	negligible  map[string]bool
	ignoreBytes bool
	copt        CompressOptions

	root    *Node
	handles map[int]*handleState
	// slab hands out every node. Blocks hold pointers to their leaves, so
	// a full slab is never grown in place: the next node starts a new slab
	// twice as large, up to maxSlab nodes, and the old one stays with the
	// nodes it holds.
	slab []Node
}

// Slab sizes, in nodes: the first slab holds a short trace, and no slab
// outgrows maxSlab, so at most maxSlab-1 nodes go unused.
const (
	minSlab = 16
	maxSlab = 1024
)

// handleState is one handle's HANDLE node and its open BLOCK, if any.
type handleState struct {
	node  *Node
	block *Node
}

// NewBuilder returns a builder with an empty ROOT. copt is applied as Finish
// returns the tree.
func NewBuilder(bopt BuildOptions, copt CompressOptions) *Builder {
	negligible := bopt.Negligible
	if negligible == nil {
		negligible = trace.DefaultNegligible
	}
	b := &Builder{
		negligible:  negligible,
		ignoreBytes: bopt.IgnoreBytes,
		copt:        copt,
	}
	b.root = b.node(Node{Kind: Root, Repeat: 1})
	return b
}

// Add adds the next operation of the trace.
func (b *Builder) Add(op trace.Op) {
	switch {
	case b.negligible[op.Name]:
	case op.IsOpen():
		h := b.handle(op.Handle, true)
		h.block = b.block(h.node)
	case op.IsClose():
		if h := b.handle(op.Handle, false); h != nil {
			h.block = nil
		}
	default:
		h := b.handle(op.Handle, true)
		if h.block == nil {
			// Implicit block for ops outside open..close.
			h.block = b.block(h.node)
		}
		blk := h.block
		bytes := op.Bytes
		if b.ignoreBytes {
			bytes = 0
		}
		if n := len(blk.Children); b.copt.Passes != 0 && n > 0 {
			if last := blk.Children[n-1]; last.Name == op.Name && last.Bytes == bytes {
				last.Repeat++
				return
			}
		}
		blk.Children = append(blk.Children, b.node(Node{Kind: OpNode, Name: op.Name, Bytes: bytes, Repeat: 1}))
	}
}

// Finish compresses the tree with the builder's CompressOptions and
// returns it. The builder must not be used afterwards.
func (b *Builder) Finish() *Node {
	if b.copt.Passes != 0 {
		Compress(b.root, b.copt)
	}
	return b.root
}

// handle returns handle h's state. On its first sight it adds the handle's
// HANDLE node under the root when add is set, and returns nil otherwise.
func (b *Builder) handle(h int, add bool) *handleState {
	hs := b.handles[h]
	if hs == nil {
		if !add {
			return nil
		}
		if b.handles == nil {
			b.handles = make(map[int]*handleState)
		}
		hs = &handleState{node: b.node(Node{Kind: Handle, Repeat: 1})}
		b.root.Children = append(b.root.Children, hs.node)
		b.handles[h] = hs
	}
	return hs
}

// block adds a BLOCK node under the HANDLE node h.
func (b *Builder) block(h *Node) *Node {
	n := b.node(Node{Kind: Block, Repeat: 1})
	h.Children = append(h.Children, n)
	return n
}

// node returns a copy of n from the slab.
func (b *Builder) node(n Node) *Node {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]Node, 0, min(max(2*cap(b.slab), minSlab), maxSlab))
	}
	b.slab = append(b.slab, n)
	return &b.slab[len(b.slab)-1]
}
