package core

import (
	"iokast/internal/token"
	"iokast/internal/trace"
	"iokast/internal/tree"
)

// Options configure the trace-to-weighted-string conversion (§3.1). The
// zero value is the paper's default configuration with byte information
// retained.
type Options struct {
	// IgnoreBytes produces the second string variant: every byte count is
	// read as zero while the tree is built (tree.BuildOptions.IgnoreBytes),
	// so the compression rules and the token literals carry no byte
	// information.
	IgnoreBytes bool
	// Negligible overrides the set of ignored operations (nil means
	// trace.DefaultNegligible).
	Negligible map[string]bool
	// Compress overrides the compression configuration. A zero Passes value
	// means the paper default (2 passes); use NoCompression to disable.
	Compress tree.CompressOptions
}

// NoCompression is a sentinel pass count for Options.Compress disabling the
// compression step entirely (Passes: NoCompression).
const NoCompression = -1 << 30

func (o Options) compressOptions() tree.CompressOptions {
	switch o.Compress.Passes {
	case 0:
		return tree.DefaultCompress()
	case NoCompression:
		return tree.CompressOptions{Passes: 0}
	default:
		return o.Compress
	}
}

// Convert runs the full §3.1 pipeline on one trace: negligible-operation
// filtering, optional byte erasure, tree building, compression, and
// flattening to a weighted string.
func Convert(t *trace.Trace, opt Options) token.String {
	return token.FromTree(ConvertTree(t, opt))
}

// ConvertTree is Convert stopping at the compressed tree, for tools that
// want to render the intermediate representation.
func ConvertTree(t *trace.Trace, opt Options) *tree.Node {
	bopt := tree.BuildOptions{Negligible: opt.Negligible, IgnoreBytes: opt.IgnoreBytes}
	return tree.BuildCompressed(t, bopt, opt.compressOptions())
}

// ConvertAll converts a slice of traces with shared options.
func ConvertAll(ts []*trace.Trace, opt Options) []token.String {
	out := make([]token.String, len(ts))
	for i, t := range ts {
		out[i] = Convert(t, opt)
	}
	return out
}
