package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"iokast/internal/iogen"
	"iokast/internal/load"
	"iokast/internal/trace"
	"iokast/internal/xrand"
)

// Request kinds. Each maps to one endpoint, and latencies are only ever
// summarised per kind.
const (
	opClassify  = "classify"   // POST /classify?k=5
	opBatch     = "batch"      // POST /traces/batch
	opIngest    = "ingest"     // POST /traces
	opSimilarID = "similar_id" // GET /similar?id=&k=5
	opDelete    = "delete"     // DELETE /traces/{id}
	opStream    = "stream"     // POST /ingest?k=5 (NDJSON events)
)

// queryK is the neighbour count of every classify and similar request.
const queryK = 5

// workload is one named traffic mix against one server configuration.
type workload struct {
	name    string
	shards  int // 1 = single engine
	prefill int // labelled traces loaded during set-up
	setups  int // set-ups per run; a small prefill sets up in ~0.1s and needs more
	// open is true for an open loop (requests due on a fixed schedule);
	// otherwise each client sends its next request when the last returns.
	open    bool
	clients int // closed-loop clients, or open-loop connections
	primary string
	// Work per second of --seconds. The amount of work is fixed by the
	// arguments, never by elapsed time.
	batchesPerSec float64 // closed-loop ingest batches
	batchSize     int
	ratePerSec    float64 // open-loop aggregate arrival rate
	mix           []mixEntry
}

type mixEntry struct {
	op     string
	weight float64
}

// prefillBatch is the batch size set-up uses to load the prefill.
const prefillBatch = 64

// workloads are the benchmark's traffic mixes; see README.md for why each
// was chosen and which layers it loads.
var workloads = []workload{
	{
		name: "ingest-durable", shards: 1, prefill: 64, setups: 20,
		clients: 1, primary: opBatch, batchesPerSec: 25.6, batchSize: 4,
	},
	{
		name: "sharded-mixed", shards: 4, prefill: 512, setups: 6,
		open: true, clients: 2, primary: opClassify, ratePerSec: 70,
		// iokload's default -mix, without its batch and similar_trace
		// entries, which this workload does not send.
		mix: []mixEntry{
			{opIngest, 2}, {opSimilarID, 3}, {opClassify, 2},
			{opDelete, 0.5}, {opStream, 1},
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Body streams. Every input is drawn from its own stream derived from the
// run seed, so changing one phase's size never perturbs another's inputs.
const (
	streamPrefill = -1
	streamWarmup  = 900
	streamQueries = 901 // exact-parity and recall queries
	streamProbes  = 902 // classify-accuracy probes
	streamTimed   = 0   // timed-phase bodies
	streamOps     = 950 // open-loop op choice
)

// labelled is one generated trace body with its generator category.
type labelled struct {
	text string
	cat  string
}

// bodyGen draws traces from iogen.LoadCategories in turn, with the shape
// of each trace drawn from the seeded stream. Taking the categories in
// turn rather than at random keeps every corpus and query set balanced, so
// the seed changes the traces but not the category mix, which moves the
// cost of a classify by several percent on its own.
type bodyGen struct {
	r *xrand.Rand
	i int
}

func newBodyGen(seed uint64, stream int) *bodyGen {
	return &bodyGen{r: xrand.New(iogen.ClientSeed(seed, stream))}
}

func (g *bodyGen) next() labelled {
	cat := iogen.LoadCategories[g.i%len(iogen.LoadCategories)]
	g.i++
	t, err := iogen.GenerateExtended(cat, g.r)
	if err != nil {
		panic(fmt.Sprintf("iogen category %q: %v", cat, err))
	}
	return labelled{trace.FormatString(t), string(cat)}
}

func genBodies(seed uint64, stream, n int) []labelled {
	g := newBodyGen(seed, stream)
	out := make([]labelled, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// request is one prepared HTTP call of the timed phase.
type request struct {
	op     string
	method string
	path   string
	body   []byte
	due    time.Duration // open loop: offset from the phase start
	bodies []labelled    // traces an ingest or batch request carries
	cat    string        // generator category of a classify or stream body
	id     int           // target of similar_id and delete
}

// inputs is everything a run sends, generated before any clock starts.
type inputs struct {
	prefill []labelled
	warmup  [][]request // per client
	timed   [][]request // one list per client (closed loop) or one schedule (open loop)
	queries []labelled
	probes  []labelled
}

const (
	warmupPerClient = 32
	nQueries        = 32
	nProbes         = 512
)

func buildInputs(w workload, seed uint64, seconds int) inputs {
	in := inputs{
		prefill: genBodies(seed, streamPrefill, w.prefill),
		queries: genBodies(seed, streamQueries, nQueries),
		probes:  genBodies(seed, streamProbes, nProbes),
	}
	warm := genBodies(seed, streamWarmup, warmupPerClient*w.clients)
	for c := 0; c < w.clients; c++ {
		var reqs []request
		for _, b := range warm[c*warmupPerClient : (c+1)*warmupPerClient] {
			reqs = append(reqs, classifyRequest(b))
		}
		in.warmup = append(in.warmup, reqs)
	}
	if w.open {
		in.timed = [][]request{openSchedule(w, seed, seconds)}
		return in
	}
	n := int(math.Round(w.batchesPerSec * float64(seconds)))
	bodies := genBodies(seed, streamTimed, n*w.batchSize)
	var reqs []request
	for i := 0; i < n; i++ {
		reqs = append(reqs, batchRequest(bodies[i*w.batchSize:(i+1)*w.batchSize]))
	}
	in.timed = [][]request{reqs}
	return in
}

func classifyRequest(b labelled) request {
	return request{op: opClassify, method: "POST", path: fmt.Sprintf("/classify?k=%d", queryK), body: []byte(b.text), cat: b.cat}
}

func batchRequest(bs []labelled) request {
	texts := make([]string, len(bs))
	for i, b := range bs {
		texts[i] = b.text
	}
	body, _ := json.Marshal(map[string][]string{"traces": texts})
	return request{op: opBatch, method: "POST", path: "/traces/batch", body: body, bodies: bs}
}

// openSchedule lays rate*seconds requests at evenly spaced due times. Each
// kind gets its share of the mix exactly, in an order shuffled by the seed,
// so the seed changes which request comes when but not how many of each
// there are. Similar-by-id targets the lower half of the prefill and
// deletes walk the upper half without repeats, so no request of the run
// can legitimately answer 404.
func openSchedule(w workload, seed uint64, seconds int) []request {
	n := int(math.Round(w.ratePerSec * float64(seconds)))
	gap := time.Duration(float64(time.Second) / w.ratePerSec)
	r := xrand.New(iogen.ClientSeed(seed, streamOps))
	bodies := newBodyGen(seed, streamTimed)
	lowHalf := w.prefill / 2
	nextDelete := lowHalf
	reqs := make([]request, 0, n)
	for i, op := range mixOrder(w.mix, n, r) {
		if op == opDelete && nextDelete >= w.prefill {
			op = opClassify // delete pool exhausted
		}
		var req request
		switch op {
		case opClassify:
			req = classifyRequest(bodies.next())
		case opSimilarID:
			id := r.Intn(lowHalf)
			req = request{op: op, method: "GET", path: fmt.Sprintf("/similar?id=%d&k=%d", id, queryK), id: id}
		case opIngest:
			b := bodies.next()
			req = request{op: op, method: "POST", path: "/traces", body: []byte(b.text), bodies: []labelled{b}}
		case opDelete:
			req = request{op: op, method: "DELETE", path: fmt.Sprintf("/traces/%d", nextDelete), id: nextDelete}
			nextDelete++
		case opStream:
			b := bodies.next()
			req = request{op: op, method: "POST", path: fmt.Sprintf("/ingest?k=%d", queryK), body: []byte(load.StreamBody(b.text)), cat: b.cat}
		}
		req.due = time.Duration(i) * gap
		reqs = append(reqs, req)
	}
	return reqs
}

// mixOrder returns n request kinds: each entry's share of n, rounded so the
// counts add up to n, in an order shuffled by r.
func mixOrder(mix []mixEntry, n int, r *xrand.Rand) []string {
	var total float64
	for _, m := range mix {
		total += m.weight
	}
	ops := make([]string, 0, n)
	var cum float64
	for _, m := range mix {
		cum += m.weight
		for len(ops) < int(math.Round(float64(n)*cum/total)) {
			ops = append(ops, m.op)
		}
	}
	for i := len(ops) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}
