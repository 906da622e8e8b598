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
	negligible := opt.Negligible
	if negligible == nil {
		negligible = trace.DefaultNegligible
	}

	root := NewInterior(Root)
	handleNode := map[int]*Node{}   // handle -> HANDLE node
	currentBlock := map[int]*Node{} // handle -> open BLOCK node, if any
	// Every leaf comes from one slab; the trace's length bounds their
	// number, so the slab never grows.
	leaves := make([]Node, 0, len(t.Ops))

	handleOf := func(h int) *Node {
		if n, ok := handleNode[h]; ok {
			return n
		}
		n := NewInterior(Handle)
		handleNode[h] = n
		root.Children = append(root.Children, n)
		return n
	}

	for _, op := range t.Ops {
		switch {
		case negligible[op.Name]:
		case op.IsOpen():
			h := handleOf(op.Handle)
			blk := NewInterior(Block)
			h.Children = append(h.Children, blk)
			currentBlock[op.Handle] = blk
		case op.IsClose():
			delete(currentBlock, op.Handle)
		default:
			blk, ok := currentBlock[op.Handle]
			if !ok {
				// Implicit block for ops outside open..close.
				h := handleOf(op.Handle)
				blk = NewInterior(Block)
				h.Children = append(h.Children, blk)
				currentBlock[op.Handle] = blk
			}
			leaf := Node{Kind: OpNode, Name: op.Name, Bytes: op.Bytes, Repeat: 1}
			if opt.IgnoreBytes {
				leaf.Bytes = 0
			}
			leaves = append(leaves, leaf)
			blk.Children = append(blk.Children, &leaves[len(leaves)-1])
		}
	}
	return root
}

// BuildCompressed builds the tree and applies the compression step with the
// given options. This is the conversion used by the end-to-end pipeline.
func BuildCompressed(t *trace.Trace, bopt BuildOptions, copt CompressOptions) *Node {
	n := Build(t, bopt)
	Compress(n, copt)
	return n
}
