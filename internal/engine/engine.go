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
	"iokast/internal/matrixio"
	"iokast/internal/sketch"
	"iokast/internal/token"
)

// Options configure an Engine.
type Options struct {
	// Kernel is the similarity function. nil means the paper's default,
	// &core.Kast{CutWeight: 2}.
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
	// SketchSeed keys the sketch hashes. Sketches (and snapshots carrying
	// them) are only compatible across engines with equal dim and seed.
	SketchSeed uint64
	// ANNBands, when > 0, switches the sketch index from a flat scan to
	// LSH-banded candidate generation (sketch.NewIndexANN): ANNBands band
	// signatures of ANNRows sign-random-projection bits each, derived from
	// SketchSeed. Search then scans only the entries sharing a band with
	// the query, falling back to the flat scan whenever exactness requires
	// it — full-rerank queries stay bit-identical to Similar. 0 (the zero
	// value) keeps the exact flat scan. Ignored when sketching is disabled.
	ANNBands int
	// ANNRows is the number of hyperplanes per band; 0 means
	// sketch.DefaultRows, values above sketch.MaxRows are clamped.
	ANNRows int
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
// similarity queries over it. It stores per-string state only — the
// kernel view, the sketch and the self-similarity k(x, x) — and evaluates
// every pairwise kernel value on demand. The zero value is not usable; use
// New. All methods are safe for concurrent use.
type Engine struct {
	mu       sync.RWMutex
	k        kernel.Kernel
	kast     *core.Kast // non-nil iff k is a Kast kernel
	featured bool       // k exposes per-string feature maps
	interner *core.Interner
	workers  int

	entries []*entry // index = id; nil after Remove and for ids Insert skipped
	active  int
	seq     uint64 // accepted mutations (adds + removes), the WAL sequence
	log     Log    // mutation log, nil for a purely in-memory engine
	logErr  error  // sticky: first log failure, surfaced by Err

	sk  *sketch.Sketcher // nil when sketching is disabled
	ix  *sketch.Index    // sketch index over live ids; nil iff sk is nil
	met Metrics          // telemetry hooks; zero value = disabled
}

// entry caches one corpus string and its per-string representation.
// Entries are immutable once committed: Remove only clears the slot, so a
// pointer copied under the read lock stays valid after it is released.
type entry struct {
	x     token.String
	feats map[string]float64 // featured kernels
	prep  *core.Prepared     // Kast kernels
	vec   []float64          // sketch vector; shares storage with the index
	self  float64            // k(x, x), the normaliser of every cosine score
}

// Neighbor is one entry of a top-k similarity query.
type Neighbor struct {
	ID         int     `json:"id"`
	Similarity float64 `json:"similarity"`
}

// New returns an empty engine.
func New(opt Options) *Engine {
	k := opt.Kernel
	if k == nil {
		k = &core.Kast{CutWeight: 2}
	}
	e := &Engine{
		k:       k,
		workers: opt.Workers,
		log:     opt.Log,
		met:     opt.Metrics,
	}
	if kk, ok := k.(*core.Kast); ok {
		e.kast = kk
		e.interner = core.NewInterner()
	} else if _, ok := kernel.Features(k, nil); ok {
		e.featured = true
	}
	if opt.SketchDim >= 0 {
		e.sk = sketch.New(sketch.Options{Dim: opt.SketchDim, Seed: opt.SketchSeed})
		e.ix = sketch.NewIndexANN(e.sk.Dim(), opt.ANNBands, opt.ANNRows, opt.SketchSeed)
		e.ix.SetMetrics(opt.Metrics.Index)
	}
	return e
}

// Kernel returns the engine's kernel.
func (e *Engine) Kernel() kernel.Kernel { return e.k }

// Len returns the number of live (non-removed) corpus entries.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.active
}

// ErrIDSpaceFull refuses an insert that would take an id at or above
// matrixio.MaxSlots. A snapshot block holds at most that many id slots, so
// an engine holding such an id could no longer be snapshotted, nor
// recovered; the refusal comes before anything is logged or applied.
var ErrIDSpaceFull = fmt.Errorf("engine: id space full (ids stop below %d)", matrixio.MaxSlots)

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
	return e.insert(nil, xs)
}

// Insert adds xs[i] under the caller-assigned id ids[i], through the same
// commit as AddBatch. The ids must increase strictly, the first must be at
// or above NextID() and the last below matrixio.MaxSlots (ErrIDSpaceFull);
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
	_, err := e.insert(ids, xs)
	return err
}

// insert is the one commit path of Add, AddBatch and Insert. A nil ids
// assigns the next len(xs) ids under the write lock; otherwise ids are
// increasing and checked against NextID there. Either way the last id is
// checked against the id space.
func (e *Engine) insert(ids []int, xs []token.String) ([]int, error) {
	m := len(xs)
	if m == 0 {
		return nil, nil
	}
	// Per-string representations are built outside the write lock; the
	// interner is internally synchronised.
	nes := make([]*entry, m)
	kernel.ParallelFor(m, e.workers, func(i int) { nes[i] = e.ingestEntry(xs[i]) })
	e.met.KernelEvals.Add(int64(m))

	e.mu.Lock()
	defer e.mu.Unlock()
	next := len(e.entries)
	if ids == nil {
		ids = make([]int, m)
		for t := range ids {
			ids[t] = next + t
		}
	} else if ids[0] < next {
		return nil, fmt.Errorf("engine: insert at id %d below next id %d", ids[0], next)
	}
	if ids[m-1] >= matrixio.MaxSlots {
		return nil, fmt.Errorf("%w: insert at id %d", ErrIDSpaceFull, ids[m-1])
	}
	var logErr error
	if e.log != nil {
		strs := make([]token.String, m)
		for t, ne := range nes {
			strs[t] = ne.x
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
	}
	e.active += m
	e.seq += uint64(m)
	e.met.Adds.Add(int64(m))
	return ids, logErr
}

// ingestEntry builds everything a new corpus entry caches: its kernel
// view, its sketch and its self-similarity. Safe for concurrent use.
func (e *Engine) ingestEntry(x token.String) *entry {
	ne := e.newEntry(x)
	e.sketchEntry(ne)
	ne.self = e.compare(ne, ne)
	return ne
}

// newEntry builds the cached kernel view for x. Safe for concurrent use.
func (e *Engine) newEntry(x token.String) *entry {
	ne := &entry{}
	switch {
	case e.kast != nil:
		ne.prep = e.interner.Prepare(x)
		ne.x = ne.prep.String() // aliases the interner's defensive copy
	case e.featured:
		f, _ := kernel.Features(e.k, x)
		ne.feats = f
		ne.x = append(token.String(nil), x...)
	default:
		ne.x = append(token.String(nil), x...)
	}
	return ne
}

// queryEntry builds this engine's view of a query string. Unlike newEntry
// it never grows the shared interner: unknown query literals get ephemeral
// scratch ids (core.Interner.PrepareEphemeral), so read-only query traffic
// — however diverse or adversarial — cannot permanently grow engine
// memory. Safe for concurrent use.
func (e *Engine) queryEntry(tq *TraceQuery) *entry {
	qe := &entry{x: tq.x, feats: tq.feats}
	if e.kast != nil {
		qe.prep = e.interner.PrepareEphemeral(tq.x)
		qe.x = qe.prep.String()
	}
	return qe
}

// sketchEntry fills ne.vec with the entry's sketch. Featured kernels are
// sketched from their own feature maps, so the sketch cosine estimates the
// kernel's cosine directly; Kast (and any other) kernels are sketched from
// the string's windowed substring features, a proxy that tracks shared-
// substring similarity well enough for shortlist recall (the exact rerank
// restores exact results). Safe for concurrent use.
func (e *Engine) sketchEntry(ne *entry) {
	if e.sk == nil {
		return
	}
	if e.featured {
		ne.vec = e.sk.SketchFeatures(ne.feats)
		return
	}
	ne.vec = e.sk.Sketch(ne.x)
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

// compareRow evaluates the kernel between the query qe and each candidate,
// fanned out over the worker pool. It runs outside e.mu: the candidates
// are immutable entries copied under the read lock. For a by-id query
// (qid >= 0) every pair puts the lower id first, the argument order of
// kernel.Gram, so exact answers equal a brute-force Gram bit for bit even
// for kernels that are not symmetric in floating point; a trace query
// (qid < 0) always comes first.
func (e *Engine) compareRow(qe *entry, qid int, cands []sketch.Candidate, against []*entry) []float64 {
	e.met.KernelEvals.Add(int64(len(against)))
	row := make([]float64, len(against))
	if e.kast != nil {
		e.met.SharedEvals.Add(int64(e.kastRow(qe.prep, qid, cands, against, row)))
		return row
	}
	kernel.ParallelFor(len(against), e.workers, func(i int) {
		if cands[i].ID < qid {
			row[i] = e.compare(against[i], qe)
		} else {
			row[i] = e.compare(qe, against[i])
		}
	})
	return row
}

// kastRow is compareRow for a Kast kernel, which shares work between
// candidates of one shape (core.Kast.CompareRow). The candidates are
// ordered by orientation, then shape, and the order is cut into at most
// one contiguous chunk per worker, each one CompareRow call; values go
// back to row by candidate index. It returns how many values a class dot
// product derived.
func (e *Engine) kastRow(q *core.Prepared, qid int, cands []sketch.Candidate, against []*entry, row []float64) int {
	n := len(against)
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
	return sum
}

// compare evaluates the kernel on two cached entries.
func (e *Engine) compare(a, b *entry) float64 {
	switch {
	case e.kast != nil:
		return e.kast.ComparePrepared(a.prep, b.prep)
	case e.featured:
		return kernel.DotFeatures(a.feats, b.feats)
	default:
		return e.k.Compare(a.x, b.x)
	}
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
	return len(e.entries)
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

// gram evaluates a Gram matrix over the live entries on demand with
// kernel.SymmetricGram (row/column order = increasing id, lower id first
// in every pair, like kernel.Gram). The kernel work runs outside e.mu.
func (e *Engine) gram(eval func(a, b *entry) float64) (*linalg.Matrix, []int, []*entry) {
	ids, ens := e.live()
	n := len(ens)
	e.met.KernelEvals.Add(int64(n) * int64(n+1) / 2)
	g := kernel.SymmetricGram(n, e.workers, func(i, j int) float64 { return eval(ens[i], ens[j]) })
	return g, ids, ens
}

// Gram returns the raw kernel matrix over the live entries (row/column
// order = increasing id) together with the ids, evaluated on demand from
// the cached per-string views: n(n+1)/2 kernel evaluations.
func (e *Engine) Gram() (*linalg.Matrix, []int) {
	g, ids, _ := e.gram(e.compare)
	return g, ids
}

// Strings returns copies of the live corpus strings in id order, with their
// ids.
func (e *Engine) Strings() ([]token.String, []int) {
	ids, ens := e.live()
	xs := make([]token.String, len(ens))
	for i, en := range ens {
		xs[i] = append(token.String(nil), en.x...)
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
	return append(token.String(nil), e.entries[id].x...), true
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
// the live entries (see NormalizeGram) — exactly the PaperSimilarity /
// CosineSimilarity batch pipelines, fed from the cached per-string views.
// clipped is the number of negative eigenvalues removed by the repair.
func (e *Engine) NormalizedGram() (m *linalg.Matrix, ids []int, clipped int, err error) {
	raw, ids, ens := e.gram(e.compare)
	xs := make([]token.String, len(ens))
	for i, en := range ens {
		xs[i] = en.x
	}
	m, clipped, err = NormalizeGram(e.k, raw, xs)
	if err != nil {
		return nil, nil, 0, err
	}
	return m, ids, clipped, nil
}

// NormalizeGram applies the paper's post-processing to a raw Gram matrix
// over xs: Eq. 12 normalisation for Kast kernels, cosine normalisation
// otherwise, then PSD repair. clipped is the number of negative
// eigenvalues the repair removed.
func NormalizeGram(k kernel.Kernel, raw *linalg.Matrix, xs []token.String) (m *linalg.Matrix, clipped int, err error) {
	norm := raw
	if kk, ok := k.(*core.Kast); ok {
		if norm, err = core.NormalizeGramPaper(raw, xs, kk.CutWeight); err != nil {
			return nil, 0, err
		}
	} else {
		norm = kernel.NormalizeCosine(raw)
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
// shortlist, i.e. the exact path. Exported so internal/shard can resolve
// the caller's rerank to the same width the single engine would before
// splitting it across shards.
func DefaultRerank(k int) int {
	if k < 0 {
		return exactRerank
	}
	if r := 4 * k; r > DefaultRerankFloor {
		return r
	}
	return DefaultRerankFloor
}

// SimilarApprox is Similar answered from the sketch index: the query id's
// stored sketch shortlists candidates (through the LSH bands when
// enabled), the shortlist is reranked with exact cosine-normalised kernel
// values, and the best k are returned in Similar's order.
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
// SimilarTracePrepared calls: the canonical string, the feature map
// (featured kernels), the prepared sketch query (vector, band signature,
// quantized copy) and the self-similarity k(q, q). All of these depend
// only on the string and the engine configuration — not on any corpus —
// so one TraceQuery can be shared across every engine built with the same
// kernel and sketch/ANN configuration. internal/shard prepares the query
// once and fans the same TraceQuery out to all shards, paying the sketch
// and signature cost once instead of once per shard.
type TraceQuery struct {
	x     token.String
	feats map[string]float64
	sq    *sketch.Query
	self  float64
	// A by-id query (PrepareStoredQuery) names the engine and id of its
	// stored entry: that engine compares with the stored view and drops
	// the id from its candidates. Every other engine treats the query as
	// a trace.
	owner  *Engine
	id     int
	stored *entry
}

// PrepareTraceQuery builds the corpus-independent representation of a
// query trace: a defensive copy of the string, its feature map for
// featured kernels, the prepared sketch query when sketching is enabled,
// and the self-similarity. The Kast prepared view is deliberately not kept:
// it depends on each engine's interner, so SimilarTracePrepared builds it
// per call.
func (e *Engine) PrepareTraceQuery(x token.String) (*TraceQuery, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("engine: empty query string")
	}
	tq := &TraceQuery{x: append(token.String(nil), x...)}
	if e.featured {
		tq.feats, _ = kernel.Features(e.k, tq.x)
	}
	if e.sk != nil {
		var vec []float64
		if e.featured {
			vec = e.sk.SketchFeatures(tq.feats)
		} else {
			vec = e.sk.Sketch(tq.x)
		}
		tq.sq = e.ix.PrepareQuery(vec)
	}
	// Self-similarity is corpus-independent (for Kast the interned view
	// only renames literals, never changes the value), so pay for it once
	// here instead of once per fan-out shard.
	qe := e.queryEntry(tq)
	tq.self = e.compare(qe, qe)
	return tq, nil
}

// PrepareStoredQuery builds a by-id TraceQuery from a live corpus entry,
// reusing everything the engine already holds for it: the stored view,
// its feature map, its self-similarity and its sketch vector with the
// stored band signature. No kernel or sketch work is paid. On this engine
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
	tq := &TraceQuery{x: en.x, feats: en.feats, self: en.self, owner: e, id: id, stored: en}
	if e.sk != nil {
		tq.sq = e.ix.SelfQuery(id)
	}
	return tq, nil
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
// or on one with an identical kernel and sketch/ANN configuration (the
// sharded fan-out); a query prepared without ANN byproducts simply falls
// back to the flat sketch scan inside the index.
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
	sq := tq.sq
	if e.sk != nil && sq == nil {
		// Prepared by a sketchless engine; sketch here so the approximate
		// paths still work.
		if e.featured {
			sq = e.ix.PrepareQuery(e.sk.SketchFeatures(qe.feats))
		} else {
			sq = e.ix.PrepareQuery(e.sk.Sketch(qe.x))
		}
	}
	if rerank < 0 {
		rerank = DefaultRerank(k)
	}

	e.mu.RLock()
	if e.kast != nil && e.interner.Stale(qe.prep) {
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
			out := neighbors(e.ix.SearchQuery(sq, k, qid))
			e.mu.RUnlock()
			return out, nil
		}
		fetch := rerank
		if k > fetch {
			fetch = k
		}
		cands = e.ix.SearchQuery(sq, fetch, qid)
		e.met.Reranked.Add(int64(len(cands)))
	}
	against := make([]*entry, len(cands))
	for i, c := range cands {
		against[i] = e.entries[c.ID]
	}
	e.mu.RUnlock()

	row := e.compareRow(qe, qid, cands, against)
	out := make([]Neighbor, len(cands))
	for i, c := range cands {
		v := row[i]
		if d := tq.self * against[i].self; d > 0 {
			v /= math.Sqrt(d)
		} else {
			v = 0
		}
		out[i] = Neighbor{ID: c.ID, Similarity: v}
	}
	return topNeighbors(out, k), nil
}

// topNeighbors returns the first k of out in SortNeighbors order, all of
// them for k < 0. For 0 <= k < len(out) it keeps the best k seen so far in
// a heap with the worst of them at the root, and sorts only those. It
// reorders out.
func topNeighbors(out []Neighbor, k int) []Neighbor {
	if k < 0 || k >= len(out) {
		SortNeighbors(out)
		return out
	}
	top := out[:k]
	if k == 0 {
		return top
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(top, i)
	}
	for _, nb := range out[k:] {
		if before(nb, top[0]) {
			top[0] = nb
			siftDown(top, 0)
		}
	}
	SortNeighbors(top)
	return top
}

// siftDown restores the heap order below h[i]: no entry comes after its
// parent in SortNeighbors order, so the root is the last of the heap.
func siftDown(h []Neighbor, i int) {
	for {
		last := i
		if l := 2*i + 1; l < len(h) && before(h[last], h[l]) {
			last = l
		}
		if r := 2*i + 2; r < len(h) && before(h[last], h[r]) {
			last = r
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

// neighbors converts sketch candidates (already sorted by the index) into
// Neighbor values carrying the sketch cosine as the similarity.
func neighbors(cands []sketch.Candidate) []Neighbor {
	out := make([]Neighbor, len(cands))
	for i, c := range cands {
		out[i] = Neighbor{ID: c.ID, Similarity: c.Score}
	}
	return out
}

// SortNeighbors orders by decreasing similarity with ties by ascending id,
// the order every query returns. It is exported because the exact-merge
// guarantee of internal/shard depends on applying this exact ordering to
// merged per-shard results; there must be one definition of it.
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
// interner table (0 for non-Kast engines). The table grows only with
// ingested corpus strings, never with query traffic — the regression tests
// for the SimilarTrace memory fix assert exactly that.
func (e *Engine) InternerSize() int {
	if e.interner == nil {
		return 0
	}
	return e.interner.Size()
}

// SketchConfig reports whether sketching is enabled and, if so, the sketch
// width and seed the engine embeds with.
func (e *Engine) SketchConfig() (dim int, seed uint64, enabled bool) {
	if e.sk == nil {
		return 0, 0, false
	}
	return e.sk.Dim(), e.sk.Seed(), true
}

// ANNConfig reports whether the sketch index generates candidates from
// LSH bands and, if so, the band count and rows per band. enabled is
// false both when sketching is off and when the index is a flat scan.
func (e *Engine) ANNConfig() (bands, rows int, enabled bool) {
	if e.ix == nil {
		return 0, 0, false
	}
	return e.ix.ANNConfig()
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
// needed; only the pair loop is paid. It returns an error for non-Kast
// engines, whose cached representations do depend on the kernel parameters.
func (e *Engine) GramAt(cutWeight int) (*linalg.Matrix, []int, error) {
	if e.kast == nil {
		return nil, nil, fmt.Errorf("engine: GramAt requires a Kast kernel, have %s", e.k.Name())
	}
	k := &core.Kast{CutWeight: cutWeight, Viability: e.kast.Viability}
	g, ids, _ := e.gram(func(a, b *entry) float64 { return k.ComparePrepared(a.prep, b.prep) })
	return g, ids, nil
}
