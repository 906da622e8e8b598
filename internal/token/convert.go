package token

import (
	"iokast/internal/tree"
)

// FromTree flattens a pattern tree into its weighted string (§3.1, Fig. 2):
// pre-order traversal; ROOT/HANDLE/BLOCK become structural tokens of weight
// 1; leaves become "name[bytes]" tokens weighted by their repetition count;
// a [LEVEL_UP] token with weight equal to the number of levels jumped is
// inserted whenever the traversal moves upward before the next node. No
// trailing [LEVEL_UP] is emitted after the final node ("its weight is simply
// the amount of levels jumped until the next new node is found" — after the
// last node there is no next node).
func FromTree(root *tree.Node) String {
	s := make(String, 0, tokenCount(root))
	pendingUp := 0

	var visit func(n *tree.Node, depth int)
	visit = func(n *tree.Node, depth int) {
		if pendingUp > 0 {
			s = append(s, Token{Literal: LitLevelUp, Weight: pendingUp})
			pendingUp = 0
		}
		s = append(s, tokenFor(n))
		for _, c := range n.Children {
			visit(c, depth+1)
		}
		pendingUp++
	}
	visit(root, 0)
	return s
}

// tokenCount is the length of n's weighted string: one token per node, and
// a [LEVEL_UP] before every node that is not its parent's first child.
func tokenCount(n *tree.Node) int {
	count := 1
	for i, c := range n.Children {
		count += tokenCount(c)
		if i > 0 {
			count++
		}
	}
	return count
}

func tokenFor(n *tree.Node) Token {
	switch n.Kind {
	case tree.Root:
		return Token{Literal: LitRoot, Weight: 1}
	case tree.Handle:
		return Token{Literal: LitHandle, Weight: 1}
	case tree.Block:
		return Token{Literal: LitBlock, Weight: 1}
	default:
		return Token{Literal: OpLiteral(n.Name, n.Bytes), Weight: n.Repeat}
	}
}
