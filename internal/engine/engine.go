package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"iokast/internal/core"
	"iokast/internal/kernel"
	"iokast/internal/linalg"
	"iokast/internal/sketch"
	"iokast/internal/token"
)

// Options configure an Engine.
type Options struct {
	// Kernel is the Kast kernel the engine runs: nil means the paper's
	// default, &core.Kast{CutWeight: 2}. Any other kernel is refused (see
	// KastKernel); the baselines run through kernel.Gram instead.
	Kernel kernel.Kernel
	// Workers bounds the goroutines of every kernel fan-out (batch ingest,
	// query reranks, on-demand Gram matrices); <= 0 means GOMAXPROCS.
	Workers int
	// Log, when non-nil, receives every accepted mutation (Add, AddBatch,
	// Insert, Remove) before it is applied, under the engine's write lock,
	// so the log order matches the id order. internal/store implements it
	// as a write-ahead log. See SetLog for attaching a log after recovery.
	Log Log
	// SketchDim is the width of the sketch vectors maintained alongside the
	// corpus for approximate similarity (SimilarApprox, SimilarTrace):
	// 0 means sketch.DefaultDim, negative disables sketching entirely.
	// Sketches are deterministic in (trace, SketchDim, SketchSeed), so two
	// engines with the same configuration and corpus hold bit-identical
	// indexes regardless of how the corpus was built or recovered.
	SketchDim int
	// SketchSeed keys the sketch hashes. Sketches are only comparable
	// across engines with equal dim and seed; snapshots carry none, so a
	// restore sketches under the restoring engine's own dim and seed.
	SketchSeed uint64
	// ANNBands and ANNRows are ignored: the sketch index has one
	// candidate path, the scan of every live sketch. They stay only until
	// the load harness, which still sets them, stops doing so.
	ANNBands, ANNRows int
	// Metrics are the telemetry hooks; the zero value disables them.
	Metrics Metrics
}

// Log receives engine mutations for durability. Implementations must be
// safe for concurrent use; calls arrive serialised under the engine's write
// lock and must be fast (append + flush, not compaction). An error does not
// abort the in-memory mutation — the engine keeps serving and surfaces the
// failure through Err — so a log error means "persistence degraded", not
// "data rejected".
type Log interface {
	// LogInsert records the insertion of xs[i] as ids[i]. The ids increase
	// strictly and need not be consecutive: every insert path (Add,
	// AddBatch, Insert) logs through it, with the ids it commits.
	LogInsert(ids []int, xs []token.String) error
	// LogRemove records the tombstoning of id.
	LogRemove(id int) error
}

// Engine is a corpus of weighted strings with exact and approximate
// similarity queries over it under the Kast kernel. It stores per-string
// state only — the interned view, the sketch and the self-similarity
// k(x, x) — and evaluates every pairwise kernel value on demand. The zero
// value is not usable; use New. All methods are safe for concurrent use.
type Engine struct {
	mu       sync.RWMutex
	kast     *core.Kast
	interner *core.Interner
	workers  int

	entries []*entry // index = id; nil after Remove and for ids Insert skipped
	next    int      // one past the highest id ever inserted: NextID
	active  int
	seq     uint64 // accepted mutations (adds + removes), the WAL sequence
	log     Log    // mutation log, nil for a purely in-memory engine
	logErr  error  // sticky: first log failure, surfaced by Err

	sk  *sketch.Sketcher // nil when sketching is disabled
	ix  *sketch.Index    // sketch index over live ids; nil iff sk is nil
	met Metrics          // telemetry hooks; zero value = disabled
}

// entry caches one corpus string's interned view, which holds the string
// itself. Entries are immutable once committed: Remove only clears the
// slot, so a pointer copied under the read lock stays valid after it is
// released.
type entry struct {
	prep *core.Prepared
	vec  []float64 // sketch vector; shares storage with the index
	self float64   // k(x, x), the normaliser of every cosine score
}

// Neighbor is one entry of a top-k similarity query.
type Neighbor struct {
	ID         int     `json:"id"`
	Similarity float64 `json:"similarity"`
}

// KastKernel resolves Options.Kernel to the Kast kernel an engine runs:
// nil means &core.Kast{CutWeight: 2}. Any other kernel is refused with an
// error that names it. Constructors that return an error (shard.New,
// shard.Open, classify.New) check with it before they call New.
func KastKernel(k kernel.Kernel) (*core.Kast, error) {
	switch kk := k.(type) {
	case nil:
		return &core.Kast{CutWeight: 2}, nil
	case *core.Kast:
		return kk, nil
	}
	return nil, fmt.Errorf("engine: kernel %s is not supported: the corpus runs the Kast kernel only", k.Name())
}

// New returns an empty engine. It panics when opt.Kernel is not a Kast
// kernel (see KastKernel).
func New(opt Options) *Engine {
	kast, err := KastKernel(opt.Kernel)
	if err != nil {
		panic(err)
	}
	e := &Engine{
		kast:     kast,
		interner: core.NewInterner(),
		workers:  opt.Workers,
		log:      opt.Log,
		met:      opt.Metrics,
	}
	if opt.SketchDim >= 0 {
		e.sk = sketch.New(sketch.Options{Dim: opt.SketchDim, Seed: opt.SketchSeed})
		e.ix = sketch.NewIndex(e.sk.Dim())
		e.ix.SetMetrics(opt.Metrics.Index)
	}
	return e
}

// Kernel returns the engine's kernel.
func (e *Engine) Kernel() *core.Kast { return e.kast }

// Workers returns Options.Workers as the engine was built with it: the
// goroutine bound of its fan-outs, where <= 0 means GOMAXPROCS.
func (e *Engine) Workers() int { return e.workers }

// Len returns the number of live (non-removed) corpus entries.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.active
}

// MaxIDs bounds the id space: every id is below it. The entries and the
// sketch index are indexed by id, so the bound also caps what an id read
// from a log record or a snapshot can make recovery allocate.
const MaxIDs = 1 << 20

// ErrIDSpaceFull refuses an insert that would take an id at or above
// MaxIDs; the refusal comes before anything is logged or applied.
var ErrIDSpaceFull = fmt.Errorf("engine: id space full (ids stop below %d)", MaxIDs)

// Add inserts a weighted string into the corpus and returns its id. Ids are
// assigned sequentially and never reused. The insert pays one kernel
// evaluation, the self-similarity; pairwise values are computed at query
// time. Add is AddBatch of one string; a log failure is reported by Err.
// Once the id space is full (ErrIDSpaceFull), Add inserts nothing and
// returns -1.
func (e *Engine) Add(x token.String) int {
	ids, _ := e.AddBatch([]token.String{x})
	if ids == nil {
		return -1
	}
	return ids[0]
}

// AddBatch inserts m strings in one step and returns their ids, the next m
// ids in order. The representations, sketches and self-similarities of the
// whole batch are built in one kernel.ParallelFor, and the batch commits
// with a single log record — on a durable engine, one fsync per batch
// rather than per trace.
//
// The returned error is either ErrIDSpaceFull, with nothing inserted and
// nil ids, or a persistence error from the attached Log, after which the
// in-memory insertion has still happened (see Log).
func (e *Engine) AddBatch(xs []token.String) ([]int, error) {
	return e.insert(nil, xs, nil)
}

// Insert adds xs[i] under the caller-assigned id ids[i], through the same
// commit as AddBatch. The ids must increase strictly, the first must be at
// or above NextID() and the last below MaxIDs (ErrIDSpaceFull);
// anything else is refused before it is logged or applied. An id the
// insert skips stays an empty slot, exactly like a removed one, so NextID
// afterwards is the last id plus one.
// internal/shard inserts corpus-wide ids this way, and WAL replay re-inserts
// logged ones.
//
// Apart from a refusal, the returned error is a persistence error from the
// attached Log, after which the insertion has still happened (see Log).
func (e *Engine) Insert(ids []int, xs []token.String) error {
	if len(ids) != len(xs) {
		return fmt.Errorf("engine: insert of %d strings under %d ids", len(xs), len(ids))
	}
	for t := 1; t < len(ids); t++ {
		if ids[t] <= ids[t-1] {
			return fmt.Errorf("engine: insert ids not increasing: %d after %d", ids[t], ids[t-1])
		}
	}
	_, err := e.insert(ids, xs, nil)
	return err
}

// insert is the one commit path of Add, AddBatch, Insert, WAL replay (which
// calls Insert) and Restore. A nil ids assigns the next len(xs) ids under
// the write lock; otherwise ids are increasing and checked against NextID
// there. Either way the last id is checked against the id space. A
// restore (snap != nil) commits into an empty engine without logging, and
// the engine then takes the snapshot's seq and next id.
func (e *Engine) insert(ids []int, xs []token.String, snap *snapshot) ([]int, error) {
	m := len(xs)
	if m == 0 && snap == nil {
		return nil, nil
	}
	// Per-string representations are built outside the write lock; the
	// interner is internally synchronised.
	nes := make([]*entry, m)
	kernel.ParallelFor(m, e.workers, func(i int) { nes[i] = e.ingestEntry(xs[i]) })
	e.met.KernelEvals.Add(int64(m))

	e.mu.Lock()
	defer e.mu.Unlock()
	if snap != nil && e.next != 0 {
		return nil, fmt.Errorf("engine: Restore into non-empty engine (next id %d)", e.next)
	}
	if ids == nil {
		ids = make([]int, m)
		for t := range ids {
			ids[t] = e.next + t
		}
	} else if m > 0 && ids[0] < e.next {
		return nil, fmt.Errorf("engine: insert at id %d below next id %d", ids[0], e.next)
	}
	if m > 0 && ids[m-1] >= MaxIDs {
		return nil, fmt.Errorf("%w: insert at id %d", ErrIDSpaceFull, ids[m-1])
	}
	var logErr error
	if e.log != nil && snap == nil {
		strs := make([]token.String, m)
		for t, ne := range nes {
			strs[t] = ne.prep.String()
		}
		//iokvet:allow lockscope(WAL insert append under e.mu is the documented durability point: ids are checked and logged atomically with respect to readers)
		if logErr = e.log.LogInsert(ids, strs); logErr != nil {
			logErr = fmt.Errorf("engine: log insert at %d: %w", ids[0], logErr)
			if e.logErr == nil {
				e.logErr = logErr
			}
		}
	}
	for t, ne := range nes {
		for len(e.entries) < ids[t] {
			e.entries = append(e.entries, nil)
		}
		e.indexEntry(ids[t], ne)
		e.entries = append(e.entries, ne)
		e.next = ids[t] + 1
	}
	e.active += m
	e.seq += uint64(m)
	e.met.Adds.Add(int64(m))
	if snap != nil {
		e.seq, e.next = snap.seq, snap.next
	}
	return ids, logErr
}

// ingestEntry builds everything a new corpus entry caches: its interned
// view (which keeps a defensive copy of x), its sketch and its
// self-similarity. Safe for concurrent use.
func (e *Engine) ingestEntry(x token.String) *entry {
	ne := &entry{prep: e.interner.Prepare(x)}
	if e.sk != nil {
		// The windowed substring features of the string, a proxy that
		// tracks Kast's shared-substring similarity well enough for
		// shortlist recall (the exact rerank restores exact results).
		ne.vec = e.sk.Sketch(ne.prep.String())
	}
	ne.self = e.kast.ComparePrepared(ne.prep, ne.prep)
	return ne
}

// queryEntry builds this engine's view of a query string. Unlike ingestEntry
// it never grows the shared interner: unknown query literals get ephemeral
// scratch ids (core.Interner.PrepareEphemeral), so read-only query traffic
// — however diverse or adversarial — cannot permanently grow engine
// memory. Safe for concurrent use.
func (e *Engine) queryEntry(tq *TraceQuery) *entry {
	return &entry{prep: e.interner.PrepareEphemeral(tq.x)}
}

// indexEntry registers a committed entry's sketch under its id. Caller
// holds e.mu; the index shares the entry's vector storage.
func (e *Engine) indexEntry(id int, ne *entry) {
	if e.ix == nil {
		return
	}
	// Ids only increase and are never reused, so Add cannot fail.
	_ = e.ix.Add(id, ne.vec)
}

// compareRow evaluates the kernel between the query view q and each
// candidate. It runs outside e.mu: the candidates are immutable entries
// copied under the read lock. For a by-id query (qid >= 0) every pair puts
// the lower id first, the argument order of kernel.Gram, so exact answers
// equal a brute-force Gram bit for bit even where Kast is not symmetric in
// floating point (heavy weights); a trace query (qid < 0) always comes
// first.
//
// Candidates of one shape share work (core.Kast.CompareRow). The
// candidates are ordered by orientation, then shape, and the order is cut
// into at most one contiguous chunk per worker, each one CompareRow call;
// values go back to the row by candidate index.
func (e *Engine) compareRow(q *core.Prepared, qid int, cands []sketch.Candidate, against []*entry) []float64 {
	n := len(against)
	e.met.KernelEvals.Add(int64(n))
	row := make([]float64, n)
	// Sort keys: the orientation bit (candidate first sorts first), the
	// shape, then the candidate index in the low 32 bits.
	order := make([]uint64, n)
	split := 0
	for i, en := range against {
		key := uint64(en.prep.Shape())<<32 | uint64(i)
		if cands[i].ID < qid {
			split++
		} else {
			key |= 1 << 63
		}
		order[i] = key
	}
	slices.Sort(order)
	chunks := e.workers
	if chunks <= 0 {
		chunks = runtime.GOMAXPROCS(0)
	}
	chunks = min(chunks, n)
	derived := make([]int, chunks)
	kernel.ParallelFor(chunks, chunks, func(c int) {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		views := make([]*core.Prepared, hi-lo)
		for j, key := range order[lo:hi] {
			views[j] = against[uint32(key)].prep
		}
		out := make([]float64, hi-lo)
		derived[c] = e.kast.CompareRow(q, views, min(max(split-lo, 0), hi-lo), out)
		for j, key := range order[lo:hi] {
			row[uint32(key)] = out[j]
		}
	})
	sum := 0
	for _, d := range derived {
		sum += d
	}
	e.met.SharedEvals.Add(int64(sum))
	return row
}

// Remove deletes the entry with the given id in O(1): the slot is cleared
// and the id dropped from the sketch index.
//
// Tombstoned slots are not reclaimed: internal storage grows with the
// highest id ever inserted, not the live corpus size. That is the right
// trade for the intended workload (corpora that mostly grow, occasional
// deletions); a sliding-window deployment with unbounded churn should
// periodically rebuild via New + re-Add, which re-densifies ids.
func (e *Engine) Remove(id int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id < 0 || id >= len(e.entries) || e.entries[id] == nil {
		return fmt.Errorf("engine: no entry with id %d", id)
	}
	if e.log != nil {
		//iokvet:allow lockscope(WAL remove under e.mu is the documented durability point: the tombstone must be logged before readers can observe the slot as free)
		if err := e.log.LogRemove(id); err != nil && e.logErr == nil {
			e.logErr = fmt.Errorf("engine: log remove %d: %w", id, err)
		}
	}
	e.entries[id] = nil
	if e.ix != nil {
		e.ix.Remove(id)
	}
	e.active--
	e.seq++
	e.met.Removes.Inc()
	return nil
}

// SetLog attaches (or replaces, or with nil detaches) the mutation log.
// internal/store uses it to attach the write-ahead log only after recovery
// replay, so replayed mutations are not re-logged.
func (e *Engine) SetLog(l Log) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.log = l
}

// Seq returns the number of mutations (adds and removes) the engine has
// accepted, including those replayed from a snapshot or log. It is the
// engine's position in the write-ahead log.
func (e *Engine) Seq() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.seq
}

// NextID returns the id the next Add would assign: one past the highest id
// ever inserted, removed ids included. Insert accepts ids from here on.
func (e *Engine) NextID() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.next
}

// Err returns the first mutation-log failure, or nil. A non-nil value means
// the in-memory state has diverged from the durable log: the engine keeps
// serving, but a restart would lose the mutations logged after the failure.
// Callers that need fail-stop semantics should check Err after mutating.
func (e *Engine) Err() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.logErr
}

// live returns the live ids in increasing order with their entries.
func (e *Engine) live() ([]int, []*entry) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ids := make([]int, 0, e.active)
	ens := make([]*entry, 0, e.active)
	for id, en := range e.entries {
		if en != nil {
			ids = append(ids, id)
			ens = append(ens, en)
		}
	}
	return ids, ens
}

// gram evaluates the Gram matrix of k over the live entries on demand
// with kernel.SymmetricGram (row/column order = increasing id, lower id
// first in every pair, like kernel.Gram). The kernel work runs outside
// e.mu.
func (e *Engine) gram(k *core.Kast) (*linalg.Matrix, []int, []*entry) {
	ids, ens := e.live()
	n := len(ens)
	e.met.KernelEvals.Add(int64(n) * int64(n+1) / 2)
	g := kernel.SymmetricGram(n, e.workers, func(i, j int) float64 {
		return k.ComparePrepared(ens[i].prep, ens[j].prep)
	})
	return g, ids, ens
}

// Gram returns the raw kernel matrix over the live entries (row/column
// order = increasing id) together with the ids, evaluated on demand from
// the cached per-string views: n(n+1)/2 kernel evaluations.
func (e *Engine) Gram() (*linalg.Matrix, []int) {
	g, ids, _ := e.gram(e.kast)
	return g, ids
}

// Strings returns copies of the live corpus strings in id order, with their
// ids.
func (e *Engine) Strings() ([]token.String, []int) {
	ids, ens := e.live()
	xs := make([]token.String, len(ens))
	for i, en := range ens {
		xs[i] = append(token.String(nil), en.prep.String()...)
	}
	return xs, ids
}

// StringAt returns a copy of the live corpus string with the given id. ok
// is false for ids that were never assigned or have been removed.
func (e *Engine) StringAt(id int) (token.String, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if id < 0 || id >= len(e.entries) || e.entries[id] == nil {
		return nil, false
	}
	return append(token.String(nil), e.entries[id].prep.String()...), true
}

// Has reports whether id names a live (non-removed) corpus entry. It is
// the allocation-free liveness check behind label validation; use StringAt
// when the string itself is needed.
func (e *Engine) Has(id int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return id >= 0 && id < len(e.entries) && e.entries[id] != nil
}

// NormalizedGram returns the paper's post-processed similarity matrix over
// the live entries (see NormalizeGram) — exactly the PaperSimilarity batch
// pipeline, fed from the cached per-string views. clipped is the number of
// negative eigenvalues removed by the repair.
func (e *Engine) NormalizedGram() (m *linalg.Matrix, ids []int, clipped int, err error) {
	raw, ids, ens := e.gram(e.kast)
	xs := make([]token.String, len(ens))
	for i, en := range ens {
		xs[i] = en.prep.String()
	}
	m, clipped, err = NormalizeGram(e.kast, raw, xs)
	if err != nil {
		return nil, nil, 0, err
	}
	return m, ids, clipped, nil
}

// NormalizeGram applies the paper's post-processing to a raw Kast Gram
// matrix over xs: Eq. 12 normalisation at k's cut weight, then PSD
// repair. clipped is the number of negative eigenvalues the repair
// removed.
func NormalizeGram(k *core.Kast, raw *linalg.Matrix, xs []token.String) (m *linalg.Matrix, clipped int, err error) {
	norm, err := core.NormalizeGramPaper(raw, xs, k.CutWeight)
	if err != nil {
		return nil, 0, err
	}
	return kernel.PSDRepair(norm)
}

// exactRerank sends a query down the exact path: every live entry is a
// candidate.
const exactRerank = math.MaxInt

// Similar returns the k live entries most similar to id, by cosine-
// normalised kernel value (so entries of very different magnitude rank
// comparably), in decreasing order with ties by ascending id. The query
// entry itself is excluded. It needs one kernel value per live entry,
// which a Kast kernel shares between entries of one shape (compareRow).
func (e *Engine) Similar(id, k int) ([]Neighbor, error) {
	tq, err := e.PrepareStoredQuery(id)
	if err != nil {
		return nil, err
	}
	return e.SimilarTracePrepared(tq, k, exactRerank)
}

// DefaultRerankFloor is the minimum candidate over-fetch SimilarApprox and
// SimilarTrace use when the caller does not pick a rerank width.
const DefaultRerankFloor = 32

// DefaultRerank sizes the candidate shortlist for a top-k query when the
// caller passes rerank < 0: a 4x over-fetch with a floor, so small k still
// gives the exact rerank enough candidates to recover sketch-ranking
// mistakes. k < 0 (return everything) yields an effectively unbounded
// shortlist, i.e. the exact path, and so does a k whose 4k would overflow.
// Exported so internal/shard can resolve the caller's rerank to the same
// width the single engine would before splitting it across shards.
func DefaultRerank(k int) int {
	if k < 0 || k > exactRerank/4 {
		return exactRerank
	}
	return max(4*k, DefaultRerankFloor)
}

// SimilarApprox is Similar answered from the sketch index: the query id's
// stored sketch shortlists candidates, the shortlist is reranked with
// exact cosine-normalised kernel values, and the best k are returned in
// Similar's order.
//
// rerank controls the shortlist: negative picks the default over-fetch
// (max(4k, DefaultRerankFloor)), 0 skips the exact rerank entirely and
// returns sketch cosines as the similarity scores, and rerank >= Len()-1
// makes the result identical to Similar(id, k). In between, the result is
// exact over the shortlist: it equals Similar whenever the shortlist
// contains the true top k.
func (e *Engine) SimilarApprox(id, k, rerank int) ([]Neighbor, error) {
	if e.ix == nil {
		return nil, fmt.Errorf("engine: sketching disabled (Options.SketchDim < 0)")
	}
	tq, err := e.PrepareStoredQuery(id)
	if err != nil {
		return nil, err
	}
	return e.SimilarTracePrepared(tq, k, rerank)
}

// TraceQuery is a query prepared once for one or more
// SimilarTracePrepared calls: the canonical string, its sketch vector and
// the self-similarity k(q, q). All of these depend only on the string and
// the engine configuration — not on any corpus — so one TraceQuery can be
// shared across every engine built with the same kernel and sketch
// configuration. internal/shard prepares the query once and fans the same
// TraceQuery out to all shards, paying the sketch cost once instead of
// once per shard.
type TraceQuery struct {
	x    token.String
	vec  []float64 // nil when the preparing engine does not sketch
	self float64
	// A by-id query (PrepareStoredQuery) names the engine and id of its
	// stored entry: that engine compares with the stored view and drops
	// the id from its candidates. Every other engine treats the query as
	// a trace.
	owner  *Engine
	id     int
	stored *entry
}

// PrepareTraceQuery builds the corpus-independent representation of a
// query trace: a defensive copy of the string, its sketch vector when
// sketching is enabled, and the self-similarity. The interned view is
// deliberately not kept: it depends on each engine's interner, so
// SimilarTracePrepared builds it per call.
func (e *Engine) PrepareTraceQuery(x token.String) (*TraceQuery, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("engine: empty query string")
	}
	tq := &TraceQuery{x: append(token.String(nil), x...)}
	if e.sk != nil {
		tq.vec = e.sk.Sketch(tq.x)
	}
	// Self-similarity is corpus-independent (the interned view only renames
	// literals, never changes the value), so pay for it once here instead
	// of once per fan-out shard.
	qe := e.queryEntry(tq)
	tq.self = e.kast.ComparePrepared(qe.prep, qe.prep)
	return tq, nil
}

// PrepareStoredQuery builds a by-id TraceQuery from a live corpus entry,
// reusing everything the engine already holds for it: the stored view,
// its self-similarity and its sketch vector, borrowed from the entry. No
// kernel or sketch work is paid. On this engine
// SimilarTracePrepared excludes id from the answer; on any other engine
// (the sharded fan-out) the query is an ordinary trace. The result aliases
// engine storage and must be treated as read-only.
func (e *Engine) PrepareStoredQuery(id int) (*TraceQuery, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if id < 0 || id >= len(e.entries) || e.entries[id] == nil {
		return nil, fmt.Errorf("engine: no entry with id %d", id)
	}
	en := e.entries[id]
	return &TraceQuery{x: en.prep.String(), vec: en.vec, self: en.self, owner: e, id: id, stored: en}, nil
}

// SimilarTrace answers "what is this trace similar to?" without ingesting
// it: the query string is prepared (and sketched) exactly like a corpus
// entry, but nothing is added to the corpus, logged, or assigned an id.
// Scores are the cosine-normalised kernel values k(q,j)/sqrt(k(q,q)k(j,j)),
// ordered like Similar.
//
// rerank works as in SimilarApprox: negative for the default over-fetch,
// 0 for sketch-only scores, >= Len() for the exact answer. When sketching
// is disabled the query always runs exact — one kernel value per live
// entry — whatever rerank says.
func (e *Engine) SimilarTrace(x token.String, k, rerank int) ([]Neighbor, error) {
	tq, err := e.PrepareTraceQuery(x)
	if err != nil {
		return nil, err
	}
	return e.SimilarTracePrepared(tq, k, rerank)
}

// SimilarTracePrepared is SimilarTrace over an already-prepared query.
// tq must come from PrepareTraceQuery or PrepareStoredQuery on this engine
// or on one with an identical kernel and sketch configuration (the
// sharded fan-out).
//
// Candidates are picked under the read lock; their kernel values are
// computed after it is released, so a queued writer never waits behind a
// query's kernel work.
func (e *Engine) SimilarTracePrepared(tq *TraceQuery, k, rerank int) ([]Neighbor, error) {
	if len(tq.x) == 0 {
		return nil, fmt.Errorf("engine: empty query string")
	}
	qe, qid := tq.stored, tq.id
	if tq.owner != e {
		// The per-engine view is built outside any lock, like Add's.
		qe, qid = e.queryEntry(tq), -1
	}
	vec := tq.vec
	if e.sk != nil && vec == nil {
		// Prepared by a sketchless engine; sketch here so the approximate
		// paths still work.
		vec = e.sk.Sketch(tq.x)
	}
	if rerank < 0 {
		rerank = DefaultRerank(k)
	}

	e.mu.RLock()
	if e.interner.Stale(qe.prep) {
		// A concurrent Add interned one of the query's unknown literals
		// between preparation and the lock, so an entry committed before the
		// lock may carry the table id where the query holds a scratch id.
		// Re-prepare under the read lock: no further entry can commit while
		// it is held, so the refreshed view agrees with every candidate.
		// (Sketches and self-similarity depend only on the string, not on
		// the id assignment, so they stay valid.) A stored view has no
		// unknown literals and is never stale.
		qe.prep = e.interner.PrepareEphemeral(tq.x)
	}
	var cands []sketch.Candidate
	if e.ix == nil || rerank >= e.active {
		// Exact path: every live entry but the query itself is a candidate.
		cands = make([]sketch.Candidate, 0, e.active)
		for id, en := range e.entries {
			if en != nil && id != qid {
				cands = append(cands, sketch.Candidate{ID: id})
			}
		}
	} else {
		if rerank == 0 {
			out := neighbors(e.ix.Search(vec, k, qid))
			e.mu.RUnlock()
			return out, nil
		}
		fetch := rerank
		if k > fetch {
			fetch = k
		}
		cands = e.ix.Search(vec, fetch, qid)
		e.met.Reranked.Add(int64(len(cands)))
	}
	against := make([]*entry, len(cands))
	for i, c := range cands {
		against[i] = e.entries[c.ID]
	}
	e.mu.RUnlock()

	row := e.compareRow(qe.prep, qid, cands, against)
	top := sketch.NewTopK(k, len(cands))
	for i, c := range cands {
		v := row[i]
		if d := tq.self * against[i].self; d > 0 {
			v /= math.Sqrt(d)
		} else {
			v = 0
		}
		top.Push(sketch.Candidate{ID: c.ID, Score: v})
	}
	return neighbors(top.Sorted()), nil
}

// neighbors converts candidates, already in order, into Neighbor values
// carrying their scores as the similarity.
func neighbors(cands []sketch.Candidate) []Neighbor {
	out := make([]Neighbor, len(cands))
	for i, c := range cands {
		out[i] = Neighbor{ID: c.ID, Similarity: c.Score}
	}
	return out
}

// SortNeighbors orders by decreasing similarity with ties by ascending id,
// the order every query returns, sketch.TopK's. It is exported because the
// exact-merge guarantee of internal/shard depends on applying this exact
// ordering to merged per-shard results.
func SortNeighbors(out []Neighbor) {
	sort.SliceStable(out, func(a, b int) bool { return before(out[a], out[b]) })
}

// before is the SortNeighbors order: a comes before b.
func before(a, b Neighbor) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.ID < b.ID
}

// InternerSize returns the number of distinct literals in the shared Kast
// interner table. The table grows only with ingested corpus strings, never
// with query traffic — the regression tests for the SimilarTrace memory
// fix assert exactly that.
func (e *Engine) InternerSize() int { return e.interner.Size() }

// SketchConfig reports whether sketching is enabled and, if so, the sketch
// width and seed the engine embeds with.
func (e *Engine) SketchConfig() (dim int, seed uint64, enabled bool) {
	if e.sk == nil {
		return 0, 0, false
	}
	return e.sk.Dim(), e.sk.Seed(), true
}

// SketchVec returns a copy of the indexed sketch vector for id, or nil if
// the id is absent, tombstoned, or sketching is disabled. Tests use it to
// assert bit-identical indexes across incremental, batch, and recovered
// engines.
func (e *Engine) SketchVec(id int) []float64 {
	if e.ix == nil {
		return nil
	}
	v := e.ix.Vec(id)
	if v == nil {
		return nil
	}
	return append([]float64(nil), v...)
}

// GramAt evaluates, on demand from the cached per-string views, the raw
// Kast Gram matrix over the live entries at a different cut weight.
// Prepared views are cut-weight independent, so no cache invalidation is
// needed; only the pair loop is paid.
func (e *Engine) GramAt(cutWeight int) (*linalg.Matrix, []int) {
	g, ids, _ := e.gram(&core.Kast{CutWeight: cutWeight, Viability: e.kast.Viability})
	return g, ids
}
