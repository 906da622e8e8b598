package tree

// Compression implements the space-saving step of §3.1: "a set of
// consecutive operation nodes on the same block can be expressed as a single
// node when they present some simple patterns", following Kluge's redundancy
// elimination. Four transformations run in the given order, and the whole
// sequence is repeated to capture higher-level patterns (the paper repeats
// it "once again", i.e. two passes).
//
// The rules, for two consecutive leaves u, v inside one BLOCK:
//
//  1. Same name, same byte count  -> one node, Repeat = u.Repeat + v.Repeat.
//     ("a read operation inside a loop reading a file n bytes per
//     iteration")
//  2. Same name, different byte counts -> one node with the same name whose
//     byte value combines both ("initializing ... a 2-bytes integer and a
//     4-bytes integer"); we combine by summation, which preserves
//     bytes-per-compound-iteration.
//  3. Different names, same byte count -> one node with the combined name
//     ("interlaced read and write ... might indicate a tacit copy"); names
//     combine as "read+write".
//  4. Different names, different byte counts, one of them zero -> one node
//     with the combined name and the non-zero count ("an lseek operation
//     moves the pointer ... and a write operation records the information").
//
// Where the paper is silent we pin these semantics (documented in
// DESIGN.md):
//
//   - Rule 1 collapses whole runs in a single scan (the merged node keeps
//     absorbing following equal nodes), since a run of identical operations
//     is one loop regardless of length.
//   - Rules 2-4 merge non-overlapping adjacent pairs per scan — the merged
//     node is not immediately re-merged with its successor. Otherwise a
//     sequence read[2] read[4] read[2] read[4] would collapse into a single
//     read[12] and the loop structure (read[6] x2) would be lost. The
//     repetition emerges on the next pass via rule 1.
//   - Rules 2-4 require equal repetition counts on the two nodes and keep
//     that count: merging read[2]x3 with read[4]x3 yields read[6]x3 (three
//     compound iterations). Unequal counts do not merge.

// CompressOptions configure the compression step.
type CompressOptions struct {
	// Passes is the number of full rule-sequence passes. 0 disables
	// compression; negative runs to a fixpoint (capped). The paper's
	// behaviour is 2 (DefaultPasses).
	Passes int
}

// DefaultPasses is the paper's pass count: the rule sequence is applied and
// then "repeated once again".
const DefaultPasses = 2

// fixpointCap bounds fixpoint iteration for Passes < 0.
const fixpointCap = 32

// DefaultCompress returns the paper's compression configuration.
func DefaultCompress() CompressOptions { return CompressOptions{Passes: DefaultPasses} }

// Compress applies the merge rules to every BLOCK of the tree in place.
func Compress(root *Node, opt CompressOptions) {
	passes := opt.Passes
	fixpoint := false
	if passes < 0 {
		passes = fixpointCap
		fixpoint = true
	}
	root.Walk(func(n *Node, _ int) bool {
		if n.Kind != Block {
			return true
		}
		for p := 0; p < passes; p++ {
			changed := false
			n.Children, changed = compressPass(n.Children)
			if fixpoint && !changed {
				break
			}
		}
		return false // no OpNode children to descend into
	})
}

// compressPass runs rules 1-4 once, in order, over the leaf list. It
// reports whether any rule merged anything.
func compressPass(ops []*Node) ([]*Node, bool) {
	changed := false
	var c bool
	ops, c = mergeRuns(ops)
	changed = changed || c
	ops, c = mergePairs(ops, rule2)
	changed = changed || c
	ops, c = mergePairs(ops, rule3)
	changed = changed || c
	ops, c = mergePairs(ops, rule4)
	changed = changed || c
	return ops, changed
}

// mergeRuns implements rule 1: collapse runs of leaves with equal name and
// byte count, summing repetition counts. A list with no such run is
// returned as it is.
func mergeRuns(ops []*Node) ([]*Node, bool) {
	first := 1
	for first < len(ops) && !sameLeaf(ops[first-1], ops[first]) {
		first++
	}
	if first >= len(ops) {
		return ops, false
	}
	out := make([]*Node, first, len(ops)) // fresh backing array; ops may alias caller state
	copy(out, ops)
	for _, op := range ops[first:] {
		if last := out[len(out)-1]; sameLeaf(last, op) {
			last.Repeat += op.Repeat
			continue
		}
		out = append(out, op)
	}
	return out, true
}

// sameLeaf reports whether rule 1 merges two leaves.
func sameLeaf(u, v *Node) bool { return u.Name == v.Name && u.Bytes == v.Bytes }

// pairRule inspects two consecutive leaves and reports whether the rule
// merges them, with the merged leaf's byte count and whether it takes the
// combined name "u+v" instead of u's name. The merged leaf keeps the
// pair's repetition count.
type pairRule func(u, v *Node) (bytes int64, combined, ok bool)

// rule2: same name, different bytes, equal repeats -> summed byte counts.
func rule2(u, v *Node) (int64, bool, bool) {
	if u.Name != v.Name || u.Bytes == v.Bytes || u.Repeat != v.Repeat {
		return 0, false, false
	}
	return u.Bytes + v.Bytes, false, true
}

// rule3: different names, same bytes, equal repeats -> combined name.
func rule3(u, v *Node) (int64, bool, bool) {
	if u.Name == v.Name || u.Bytes != v.Bytes || u.Repeat != v.Repeat {
		return 0, false, false
	}
	return u.Bytes, true, true
}

// rule4: different names, different bytes, one count zero, equal repeats ->
// combined name, non-zero count.
func rule4(u, v *Node) (int64, bool, bool) {
	if u.Name == v.Name || u.Bytes == v.Bytes || u.Repeat != v.Repeat {
		return 0, false, false
	}
	if u.Bytes != 0 && v.Bytes != 0 {
		return 0, false, false
	}
	bytes := u.Bytes
	if bytes == 0 {
		bytes = v.Bytes
	}
	return bytes, true, true
}

// mergePairs scans left to right merging non-overlapping adjacent pairs with
// the rule. The merged node is appended and the scan continues after the
// pair, so a merged node is never re-merged within the same scan. A list
// with no pair to merge is returned as it is. Merged nodes come from one
// slab sized for the most merges the rest of the scan can make, and a run
// of equal pairs shares one combined name.
func mergePairs(ops []*Node, rule pairRule) ([]*Node, bool) {
	first := 0
	for first+1 < len(ops) && !matches(rule, ops[first], ops[first+1]) {
		first++
	}
	if first+1 >= len(ops) {
		return ops, false
	}
	out := make([]*Node, first, len(ops))
	copy(out, ops)
	merged := make([]Node, 0, (len(ops)-first)/2)
	var name, nameU, nameV string // the last combined name and its parts
	for i := first; i < len(ops); {
		if i+1 < len(ops) {
			u, v := ops[i], ops[i+1]
			if bytes, combined, ok := rule(u, v); ok {
				m := Node{Kind: OpNode, Name: u.Name, Bytes: bytes, Repeat: u.Repeat}
				if combined {
					if name == "" || u.Name != nameU || v.Name != nameV {
						name, nameU, nameV = u.Name+"+"+v.Name, u.Name, v.Name
					}
					m.Name = name
				}
				merged = append(merged, m)
				out = append(out, &merged[len(merged)-1])
				i += 2
				continue
			}
		}
		out = append(out, ops[i])
		i++
	}
	return out, true
}

// matches reports whether rule merges u and v.
func matches(rule pairRule, u, v *Node) bool {
	_, _, ok := rule(u, v)
	return ok
}
