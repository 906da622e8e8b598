package main

import (
	"fmt"
	"math"
	"sort"

	"iokast/internal/cli"
	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/sketch"
	"iokast/internal/token"
	"iokast/internal/trace"
)

// exactRerank asks for a shortlist at least as large as any corpus here,
// which makes /similar exact.
const exactRerank = 1 << 30

// engineOptions configures an engine the way iokserve configures its own
// with default flags: Kast at cut weight 2, default sketch width and seed,
// and the default LSH bands.
func engineOptions(m engine.Metrics) (engine.Options, error) {
	kern, err := cli.KernelSpec{Name: "kast", CutWeight: 2}.Build()
	if err != nil {
		return engine.Options{}, err
	}
	return engine.Options{Kernel: kern, ANNBands: sketch.DefaultBands, ANNRows: sketch.DefaultRows, Metrics: m}, nil
}

func convert(text string) (token.String, error) {
	tr, err := trace.ParseString(text)
	if err != nil {
		return nil, err
	}
	return core.Convert(tr, core.Options{}), nil
}

// reference builds an in-process engine holding the same traces under the
// same ids as the server should: every acknowledged trace added in id
// order, then every acknowledged deletion applied.
func (r *e2eRun) reference() (*engine.Engine, error) {
	ids := make([]int, 0, len(r.corpus))
	for id := range r.corpus {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	xs := make([]token.String, len(ids))
	for i, id := range ids {
		if id != i {
			return nil, fmt.Errorf("acknowledged ids are not dense: id %d at position %d", id, i)
		}
		x, err := convert(r.corpus[id].text)
		if err != nil {
			return nil, err
		}
		xs[i] = x
	}
	opt, err := engineOptions(engine.Metrics{})
	if err != nil {
		return nil, err
	}
	eng := engine.New(opt)
	for lo := 0; lo < len(xs); lo += prefillBatch {
		if _, err := eng.AddBatch(xs[lo:min(lo+prefillBatch, len(xs))]); err != nil {
			return nil, err
		}
	}
	for id := range r.deleted {
		if err := eng.Remove(id); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

type similarResponse struct {
	Neighbors []engine.Neighbor `json:"neighbors"`
}

// verify checks the restarted server's answers: every acknowledged trace
// is present and every acknowledged deletion absent; exact similarity
// answers equal the in-process reference bit for bit; and it measures
// recall of the default (approximate) path and classification accuracy.
func (r *e2eRun) verify(s *server) error {
	c := newClient(s.addr)
	defer c.close()

	missing, resurrected := 0, 0
	for id := range r.corpus {
		status, _, err := c.do("GET", fmt.Sprintf("/similar?id=%d&k=1&approx=1&rerank=0", id), nil)
		want := 200
		if r.deleted[id] {
			want = 404
		}
		if !r.t.record("GET /similar?id", status, err, func(st int) bool { return st == 200 || st == 404 }) {
			continue
		}
		switch {
		case status != want && want == 200:
			missing++
		case status != want:
			resurrected++
		}
	}
	if missing+resurrected > 0 {
		r.fail("durable", "after kill -9: %d acknowledged traces missing, %d deleted traces back", missing, resurrected)
	} else {
		r.pass("durable", "all %d acknowledged traces present, %d deletions kept, after kill -9", r.live(), len(r.deleted))
	}

	ref, err := r.reference()
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	mismatched := 0
	var recalls []float64
	for _, q := range r.in.queries {
		var exact, approx similarResponse
		if !c.call(&r.t, "POST", fmt.Sprintf("/similar?k=10&rerank=%d", exactRerank), []byte(q.text), &exact) ||
			!c.call(&r.t, "POST", "/similar?k=10", []byte(q.text), &approx) {
			continue
		}
		x, err := convert(q.text)
		if err != nil {
			return err
		}
		want, err := ref.SimilarTrace(x, 10, exactRerank)
		if err != nil {
			return err
		}
		if !sameNeighbors(exact.Neighbors, want) {
			mismatched++
		}
		recalls = append(recalls, recall(approx.Neighbors, exact.Neighbors))
	}
	if mismatched > 0 {
		r.fail("exact_parity", "%d of %d exact top-10 answers differ from the in-process engine", mismatched, len(r.in.queries))
	} else {
		r.pass("exact_parity", "%d exact top-10 answers equal the in-process engine bit for bit", len(r.in.queries))
	}
	// Recall is reported, not a metric: the 32 queries against a
	// seed-dependent corpus move it by ±40% from seed to seed.
	r.rep.Recall = mean(recalls)

	correct := 0
	for _, p := range r.in.probes {
		var res struct {
			Label string `json:"label"`
		}
		if c.call(&r.t, "POST", fmt.Sprintf("/classify?k=%d", queryK), []byte(p.text), &res) && res.Label == p.cat {
			correct++
		}
	}
	acc := float64(correct) / float64(len(r.in.probes))
	r.rep.Metrics["classify_accuracy"] = metric{acc, "ratio"}
	// Three generator categories: chance is 1/3. Half is far below what the
	// kernel achieves and far above what a broken vote gives.
	if acc < 0.5 {
		r.fail("classify_accuracy", "accuracy %.3f below 0.5 over %d probes", acc, len(r.in.probes))
	} else {
		r.pass("classify_accuracy", "accuracy %.3f over %d probes", acc, len(r.in.probes))
	}
	return nil
}

func sameNeighbors(a, b []engine.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Similarity) != math.Float64bits(b[i].Similarity) {
			return false
		}
	}
	return true
}

// recall is the share of got's slots holding a true top-len(exact)
// neighbour. Generated traces often convert to equal strings, so many
// corpus entries tie at the cut-off similarity; any of them is a correct
// answer, which is why membership is decided by similarity, not by id.
// got's similarities are exact kernel values (the default path reranks
// its shortlist exactly), so they compare directly with exact's.
func recall(got, exact []engine.Neighbor) float64 {
	if len(exact) == 0 {
		return 1
	}
	cut := exact[len(exact)-1].Similarity
	hit := 0
	for _, n := range got {
		if n.Similarity >= cut {
			hit++
		}
	}
	return float64(min(hit, len(exact))) / float64(len(exact))
}
