package classify

import "sort"

// Vote is the aggregated ballot of one label across the scored neighbours
// of a classification query.
type Vote struct {
	Label string `json:"label"`
	// Weight is the sum of the normalised similarities of the neighbours
	// carrying the label — the quantity the winner is chosen by.
	Weight float64 `json:"weight"`
	// Count is how many neighbours carried the label.
	Count int `json:"count"`
}

// aggregate turns scored, labelled neighbours into per-label votes weighted
// by normalised similarity and picks the winner. labels[i] and sims[i]
// describe one neighbour; entries with an empty label (unlabelled corpus
// ids) are ignored. Negative similarities (Kast values are non-negative,
// so none arise from the corpus) clamp to zero so a bad neighbour can
// never subtract from a label.
//
// Determinism contract: votes accumulate in the neighbour order given, so
// callers that present bit-identical neighbour lists (the sharded-vs-single
// equivalence guarantee) get bit-identical vote weights. The returned votes
// are ordered by weight desc, count desc, label asc; the winner is votes[0].
// confidence is the winner's share of the total vote weight (0 when nothing
// voted).
func aggregate(labels []string, sims []float64) (votes []Vote, winner string, confidence float64) {
	idx := make(map[string]int)
	for i, l := range labels {
		if l == "" {
			continue
		}
		s := sims[i]
		if s < 0 {
			s = 0
		}
		j, ok := idx[l]
		if !ok {
			j = len(votes)
			idx[l] = j
			votes = append(votes, Vote{Label: l})
		}
		votes[j].Weight += s
		votes[j].Count++
	}
	sort.SliceStable(votes, func(a, b int) bool {
		if votes[a].Weight != votes[b].Weight {
			return votes[a].Weight > votes[b].Weight
		}
		if votes[a].Count != votes[b].Count {
			return votes[a].Count > votes[b].Count
		}
		return votes[a].Label < votes[b].Label
	})
	if len(votes) == 0 {
		return nil, "", 0
	}
	total := 0.0
	for _, v := range votes {
		total += v.Weight
	}
	winner = votes[0].Label
	if total > 0 {
		confidence = votes[0].Weight / total
	}
	return votes, winner, confidence
}
