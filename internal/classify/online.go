package classify

import (
	"fmt"

	"iokast/internal/engine"
	"iokast/internal/token"
)

// Corpus is the similarity surface the online classifier needs: query-by-
// trace against a live corpus. The server's corpus, shard.Sharded,
// satisfies it at every shard count; so does a bare engine.Engine, for
// library callers that hold one. Both answer bit for bit alike with an
// exact rerank, so classification does not depend on the shard count.
type Corpus interface {
	SimilarTrace(x token.String, k, rerank int) ([]engine.Neighbor, error)
}

// Neighbor is one scored corpus entry of a classification query, its label
// attached when the registry has one.
type Neighbor struct {
	ID         int     `json:"id"`
	Label      string  `json:"label,omitempty"`
	Similarity float64 `json:"similarity"`
}

// Result is one classification: the winning label, its confidence (share of
// the total vote weight), the full per-label ballot, and the scored
// neighbours the vote was taken over. Label is "" when no labelled
// neighbour was found (empty corpus, k=0, or nothing labelled yet);
// Votes and Neighbors are never nil, so the JSON form is always
// well-formed ([] rather than null).
type Result struct {
	Label      string     `json:"label"`
	Confidence float64    `json:"confidence"`
	Votes      []Vote     `json:"votes"`
	Neighbors  []Neighbor `json:"neighbors"`
}

// Online classifies traces against a live corpus by k-NN vote over the
// corpus's similarity machinery: the query runs SimilarTrace (sketch
// shortlist plus exact rerank where enabled, fanned out across shards in
// parallel for a sharded corpus), neighbours are labelled through the
// registry, and per-label votes weighted by normalised similarity pick the
// winner. It holds no state beyond the two references; all methods are safe
// for concurrent use whenever the corpus and registry are.
type Online struct {
	c   Corpus
	reg *Registry
}

// NewOnline wires a classifier over a corpus and a label registry.
func NewOnline(c Corpus, reg *Registry) *Online {
	return &Online{c: c, reg: reg}
}

// Registry returns the classifier's label registry.
func (o *Online) Registry() *Registry { return o.reg }

// Classify labels x by similarity-weighted vote over its k most similar
// corpus entries. k and rerank follow the engine's SimilarTrace convention:
// k < 0 means every live entry, rerank < 0 picks the default over-fetch,
// rerank 0 votes on raw sketch scores, rerank >= the corpus size is exact.
// Unlabelled neighbours appear in the result but do not vote. k = 0 is
// valid and returns an empty (but well-formed) result.
func (o *Online) Classify(x token.String, k, rerank int) (*Result, error) {
	ns, err := o.c.SimilarTrace(x, k, rerank)
	if err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	res := &Result{Votes: []Vote{}, Neighbors: make([]Neighbor, len(ns))}
	labels := make([]string, len(ns))
	sims := make([]float64, len(ns))
	for i, nb := range ns {
		label, _ := o.reg.LabelOf(nb.ID)
		res.Neighbors[i] = Neighbor{ID: nb.ID, Label: label, Similarity: nb.Similarity}
		labels[i] = label
		sims[i] = nb.Similarity
	}
	votes, winner, confidence := aggregate(labels, sims)
	if votes != nil {
		res.Votes = votes
	}
	res.Label = winner
	res.Confidence = confidence
	return res, nil
}
