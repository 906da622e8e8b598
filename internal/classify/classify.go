// Package classify assigns labels to access patterns by kernel similarity
// against a labelled corpus. This is the downstream use the paper motivates
// (and its related work pursues with neural networks and HMMs — Madhyastha
// & Reed; pattern databases — Behzad et al.): once a collection of known
// patterns exists, an incoming trace can be matched to its family without
// retraining anything, because kernel methods only need pairwise
// similarities.
//
// Two surfaces share one implementation:
//
//   - Online classifies against a live corpus (engine.Engine or
//     shard.Sharded) with labels held in a durable Registry — the serving
//     path behind iokserve's POST /classify.
//   - Classifier is the batch form: a fixed reference set loaded up front
//     (cmd/iokclassify), implemented as a thin shell over an in-memory
//     engine and the same similarity-weighted vote.
package classify

import (
	"fmt"

	"iokast/internal/engine"
	"iokast/internal/kernel"
	"iokast/internal/token"
)

// Classifier labels weighted strings by kernel similarity to a fixed
// labelled reference set. It is a batch shell over the same machinery the
// online path serves: references live in an in-memory incremental engine
// (cached per-string representations, no sketching — every query runs
// exact), queries run engine.SimilarTrace, and the winner is picked by the
// shared similarity-weighted vote.
type Classifier struct {
	eng    *engine.Engine
	refs   []token.String
	labels []string
	k      int
}

// New builds a k-nearest-neighbour classifier over the reference set. kern
// must be a Kast kernel (nil means cut weight 2); any other kernel is
// refused with an error that names it. Similarities are cosine-normalised
// internally, so they are comparable across differently sized references.
// k defaults to 1; it is clamped to the reference count.
func New(kern kernel.Kernel, refs []token.String, labels []string, k int) (*Classifier, error) {
	kast, err := engine.KastKernel(kern)
	if err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("classify: empty reference set")
	}
	if len(refs) != len(labels) {
		return nil, fmt.Errorf("classify: %d references but %d labels", len(refs), len(labels))
	}
	if k < 1 {
		k = 1
	}
	if k > len(refs) {
		k = len(refs)
	}
	eng := engine.New(engine.Options{Kernel: kast, SketchDim: -1})
	if _, err := eng.AddBatch(refs); err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	return &Classifier{
		eng:    eng,
		refs:   append([]token.String(nil), refs...),
		labels: append([]string(nil), labels...),
		k:      k,
	}, nil
}

// Match is one scored reference.
type Match struct {
	Index      int
	Label      string
	Similarity float64 // cosine-normalised kernel value
}

// matches scores x against every reference, most similar first (ties by
// ascending reference index — engine.SortNeighbors order).
func (c *Classifier) matches(x token.String) ([]Match, error) {
	if kern := c.eng.Kernel(); kern.Compare(x, x) <= 0 {
		return nil, fmt.Errorf("classify: input has zero self-similarity under %s", kern.Name())
	}
	// Sketching is disabled on the reference engine, so this is always the
	// exact path: one kernel evaluation per reference.
	ns, err := c.eng.SimilarTrace(x, -1, len(c.refs))
	if err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	out := make([]Match, len(ns))
	for i, nb := range ns {
		out[i] = Match{Index: nb.ID, Label: c.labels[nb.ID], Similarity: nb.Similarity}
	}
	return out, nil
}

// vote picks the winning label among the k best of matches by the shared
// similarity-weighted ballot.
func vote(matches []Match, k int) string {
	if k > len(matches) {
		k = len(matches)
	}
	labels := make([]string, k)
	sims := make([]float64, k)
	for i, m := range matches[:k] {
		labels[i] = m.Label
		sims[i] = m.Similarity
	}
	_, winner, _ := aggregate(labels, sims)
	return winner
}

// Classify returns the winning label among the k most similar references
// (votes weighted by normalised similarity, ties broken toward the more
// voted and then lexicographically smaller label) and the full scored
// reference list, most similar first.
func (c *Classifier) Classify(x token.String) (string, []Match, error) {
	matches, err := c.matches(x)
	if err != nil {
		return "", nil, err
	}
	return vote(matches, c.k), matches, nil
}

// Accuracy runs leave-one-out cross-validation over the reference set: how
// often a reference is classified correctly by the other references. The
// held-out reference is excluded by dropping its own id from the scored
// list, which is equivalent to rebuilding the classifier without it
// (similarities are pairwise).
func (c *Classifier) Accuracy() (float64, error) {
	if len(c.refs) < 2 {
		return 0, fmt.Errorf("classify: need at least 2 references for cross-validation")
	}
	k := c.k
	if k > len(c.refs)-1 {
		k = len(c.refs) - 1
	}
	correct := 0
	for i := range c.refs {
		matches, err := c.matches(c.refs[i])
		if err != nil {
			continue // degenerate reference; counts as incorrect
		}
		held := matches[:0:0]
		for _, m := range matches {
			if m.Index != i {
				held = append(held, m)
			}
		}
		if vote(held, k) == c.labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(c.refs)), nil
}
