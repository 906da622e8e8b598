package shard

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"iokast/internal/engine"
	"iokast/internal/kernel"
	"iokast/internal/obs"
	"iokast/internal/store"
	"iokast/internal/token"
)

// Options configure a Sharded corpus.
type Options struct {
	// Shards is the number of independent engine+store pairs; 0 means 1.
	// The count is pinned by the MANIFEST of a durable directory and cannot
	// change across reopens (resharding is a future, separate operation).
	Shards int
	// Seed keys the Route hash. Like the shard count, it is pinned by the
	// MANIFEST: ids are routed identically forever.
	Seed uint64
	// Engine configures every shard engine identically (kernel, workers,
	// sketch). Engine.Log must be nil; each shard's store attaches itself.
	Engine engine.Options
	// Store configures every shard's persistence (snapshot cadence, fsync
	// policy). Ignored by New (in-memory corpora have no stores).
	Store store.Options
	// Obs, when non-nil, registers per-shard telemetry on the registry:
	// engine/sketch/store families labelled shard="N", per-shard fan-out
	// latency histograms, and degraded/size gauges. Any Metrics already
	// set in Engine or Store are overridden by the labelled ones.
	Obs *obs.Registry
}

// loc places one global id inside its owner shard.
type loc struct {
	shard int
	local int
}

// Sharded is a hash-routed multi-shard corpus. Every trace lives in exactly
// one shard (chosen by Route over its global id), mutations touch only the
// owner shard (sub-batches of AddBatch run in parallel across shards), and
// similarity queries fan out to every shard in parallel and merge exactly.
// All methods are safe for concurrent use.
//
// Mutations are serialised globally (one at a time, though a batch's
// per-shard sub-batches and every kernel evaluation inside them run in
// parallel). That matches the single engine, whose write lock serialises
// mutations anyway, and it is what makes crash recovery tractable: at most
// the one in-flight mutation can be torn across shard WALs, so recovery
// only ever has to reconcile a single batch tail (see buildMapping).
type Sharded struct {
	n    int
	seed uint64
	dir  string // empty for in-memory corpora

	engines []*engine.Engine
	stores  []*store.Store // nil entries when in-memory

	ingest sync.Mutex // serialises Add/AddBatch/Remove, fixing the global order

	mu       sync.RWMutex
	locals   []loc   // global id -> owner shard and local id
	globals  [][]int // per shard: local id -> global id
	repaired int     // tombstone slots plugged while reconciling a torn batch

	fanoutSec []*obs.Histogram // per-shard fan-out latency; nil = no telemetry
}

// New returns an in-memory sharded corpus: engines only, no manifest, no
// durability.
func New(opt Options) (*Sharded, error) { return open("", opt) }

// Open recovers (or initialises) a durable sharded corpus from dir. The
// directory holds a MANIFEST pinning shard count, hash seed, and
// kernel/sketch config, plus one store subdirectory (WAL + snapshot chain)
// per shard. Every shard is recovered concurrently; a directory whose
// manifest disagrees with opt is refused. After recovery the global id
// mapping is rebuilt deterministically from the shards' id counts, rolling
// a torn cross-shard batch forward where sub-batches committed and plugging
// durable tombstone slots where they did not (see buildMapping).
func Open(dir string, opt Options) (*Sharded, error) {
	if dir == "" {
		return nil, fmt.Errorf("shard: empty directory (use New for an in-memory corpus)")
	}
	return open(dir, opt)
}

func open(dir string, opt Options) (*Sharded, error) {
	n := opt.Shards
	if n == 0 {
		n = 1
	}
	if n < 1 || n > maxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1, %d]", n, maxShards)
	}
	if opt.Engine.Log != nil {
		return nil, fmt.Errorf("shard: Engine.Log must be nil (each shard's store attaches its own log)")
	}

	// A throwaway engine resolves the option defaults (nil kernel, zero
	// sketch dim) exactly the way every shard engine will, so the manifest
	// records the effective configuration, not the requested one.
	probe := engine.New(opt.Engine)
	man := manifest{shards: n, seed: opt.Seed, kernel: probe.Kernel().Name()}
	man.sketchDim, man.sketchSeed, man.sketch = probe.SketchConfig()

	// Per-shard option copies: with a registry attached, every shard's
	// engine, sketch index, and store get their own shard="N"-labelled
	// instruments. Reopening against the same registry is safe: the
	// registry's get-or-create hands back the existing counters and
	// histograms, and the sampled gauges in registerMetrics are
	// last-wins, re-binding their closures to the fresh engines.
	eopts := make([]engine.Options, n)
	sopts := make([]store.Options, n)
	for i := 0; i < n; i++ {
		eopts[i], sopts[i] = opt.Engine, opt.Store
		if opt.Obs != nil {
			labels := obs.Labels{"shard": strconv.Itoa(i)}
			eopts[i].Metrics = engine.NewMetrics(opt.Obs, labels)
			sopts[i].Metrics = store.NewMetrics(opt.Obs, labels)
		}
	}

	s := &Sharded{
		n: n, seed: opt.Seed, dir: dir,
		engines: make([]*engine.Engine, n),
		stores:  make([]*store.Store, n),
		globals: make([][]int, n),
	}
	if dir == "" {
		for i := range s.engines {
			s.engines[i] = engine.New(eopts[i])
		}
	} else {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		if err := loadOrCreateManifest(filepath.Join(dir, manifestName), man); err != nil {
			return nil, err
		}
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sub := filepath.Join(dir, ShardDir(i))
				s.engines[i], s.stores[i], errs[i] = store.Open(sub,
					func() *engine.Engine { return engine.New(eopts[i]) }, sopts[i])
			}(i)
		}
		wg.Wait()
		var firstErr error
		for i, err := range errs {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", i, err)
			}
		}
		if firstErr != nil {
			s.closeStores()
			return nil, firstErr
		}
	}
	if err := s.buildMapping(); err != nil {
		s.closeStores()
		return nil, err
	}
	if opt.Obs != nil {
		s.registerMetrics(opt.Obs)
	}
	return s, nil
}

// registerMetrics registers the shard-level telemetry: per-shard fan-out
// latency histograms and per-shard health/size gauges sampled at scrape
// time. GaugeFunc re-registration is last-wins, so a reopen replaces the
// sampling closures with ones holding the new engine pointers instead of
// panicking or sampling a closed corpus.
func (s *Sharded) registerMetrics(reg *obs.Registry) {
	s.fanoutSec = make([]*obs.Histogram, s.n)
	for i := 0; i < s.n; i++ {
		labels := obs.Labels{"shard": strconv.Itoa(i)}
		s.fanoutSec[i] = reg.Histogram("iok_shard_fanout_seconds", "Per-shard similarity fan-out latency.", labels)
		eng := s.engines[i]
		reg.GaugeFunc("iok_shard_degraded", "1 when the shard's persistence carries a sticky error.", labels, func() float64 {
			if eng.Err() != nil {
				return 1
			}
			return 0
		})
		reg.GaugeFunc("iok_shard_traces", "Live traces owned by the shard.", labels, func() float64 {
			return float64(eng.Len())
		})
	}
}

// InternerSize returns the total number of distinct literals across the
// per-shard interner tables (the corpus-memory gauge of the sharded
// corpus; see engine.InternerSize).
func (s *Sharded) InternerSize() int {
	total := 0
	for _, e := range s.engines {
		total += e.InternerSize()
	}
	return total
}

// ShardDir names the store subdirectory of one shard inside a sharded data
// directory.
func ShardDir(i int) string { return fmt.Sprintf("shard-%03d", i) }

// filler is the string plugged (and immediately tombstoned) into a shard to
// occupy a local slot for a global id whose own sub-batch was lost in a
// crash. It only has to be a valid weighted string; it is never live, so no
// query can ever return it.
var filler = token.String{{Literal: token.LitRoot, Weight: 1}}

// maxRepair bounds the tombstone slots one recovery may plug. A torn batch
// leaves at most one batch worth of holes; a walk that wants orders of
// magnitude more is reconciling directories that were never one corpus.
const maxRepair = 1 << 20

// buildMapping rebuilds the global id mapping from the shards' id counts.
//
// Local ids within a shard are assigned in global order, so global id g
// lives at local slot |{g' < g : Route(g') == Route(g)}| of its shard: the
// whole mapping is determined by walking g upward and dealing each id to
// the next free slot of its owner. On a cleanly produced directory the walk
// consumes every shard's slots exactly.
//
// After a crash the shards may disagree by exactly the one in-flight
// mutation (mutations are serialised): a cross-shard AddBatch whose
// sub-batches committed in some shards but not others. The walk rolls the
// committed sub-batches forward (preserving an unacknowledged mutation is
// allowed; losing an acknowledged one is not, and acknowledged mutations
// are fully committed in every shard by definition). For a global id whose
// owner shard lost its sub-batch, the walk plugs the missing slot durably:
// a filler entry is added and immediately tombstoned through the shard's
// own WAL, so the id space stays dense, the mapping stays deterministic
// across every future reopen, and the id reads as removed — exactly like
// any other dead id. Repaired reports how many slots were plugged.
func (s *Sharded) buildMapping() error {
	counts := make([]int, s.n)
	remaining := 0
	for i, e := range s.engines {
		counts[i] = e.NextID()
		remaining += counts[i]
	}
	consumed := make([]int, s.n)
	for g := 0; remaining > 0; g++ {
		sh := Route(g, s.seed, s.n)
		if consumed[sh] < counts[sh] {
			s.locals = append(s.locals, loc{sh, consumed[sh]})
			s.globals[sh] = append(s.globals[sh], g)
			consumed[sh]++
			remaining--
			continue
		}
		if s.repaired >= maxRepair {
			return fmt.Errorf("shard: recovery needs more than %d plugged slots; directory is not one corpus", maxRepair)
		}
		id := s.engines[sh].Add(filler.Clone())
		if err := s.engines[sh].Remove(id); err != nil {
			return fmt.Errorf("shard %d: tombstoning plugged slot %d: %w", sh, id, err)
		}
		if err := s.engines[sh].Err(); err != nil {
			return fmt.Errorf("shard %d: persisting plugged slot %d: %w", sh, id, err)
		}
		counts[sh]++
		s.locals = append(s.locals, loc{sh, id})
		s.globals[sh] = append(s.globals[sh], g)
		consumed[sh]++
		s.repaired++
	}
	return nil
}

// --- mutations ------------------------------------------------------------

// Add inserts a weighted string and returns its global id. Ids are assigned
// sequentially and never reused; the entry lives only in its routed shard,
// which pays the insertion's one kernel evaluation, the self-similarity.
// Persistence failures surface through Err, exactly as on the single
// engine.
func (s *Sharded) Add(x token.String) int {
	s.ingest.Lock()
	defer s.ingest.Unlock()
	s.mu.Lock()
	g := len(s.locals)
	sh := Route(g, s.seed, s.n)
	local := len(s.globals[sh])
	s.locals = append(s.locals, loc{sh, local})
	s.globals[sh] = append(s.globals[sh], g)
	s.mu.Unlock()
	if got := s.engines[sh].Add(x); got != local {
		panic(fmt.Sprintf("shard: engine %d assigned local id %d, supervisor expected %d (shard mutated outside the supervisor)", sh, got, local))
	}
	return g
}

// AddBatch inserts m strings in one step and returns their global ids,
// which are consecutive. The batch is split by routing into per-shard
// sub-batches that are applied in parallel, each paying one WAL record and
// one fsync in its own shard — cross-shard ingest scales with the shard
// count. The returned error is the first per-shard persistence error; as
// with the single engine, the in-memory insertion has still happened.
func (s *Sharded) AddBatch(xs []token.String) ([]int, error) {
	m := len(xs)
	if m == 0 {
		return nil, nil
	}
	s.ingest.Lock()
	defer s.ingest.Unlock()
	subs := make([][]token.String, s.n)
	s.mu.Lock()
	first := len(s.locals)
	for t := 0; t < m; t++ {
		g := first + t
		sh := Route(g, s.seed, s.n)
		s.locals = append(s.locals, loc{sh, len(s.globals[sh])})
		s.globals[sh] = append(s.globals[sh], g)
		subs[sh] = append(subs[sh], xs[t])
	}
	s.mu.Unlock()

	firstLocal := make([]int, s.n)
	for sh := range firstLocal {
		firstLocal[sh] = s.engines[sh].NextID()
	}
	errs := make([]error, s.n)
	var wg sync.WaitGroup
	for sh := range subs {
		if len(subs[sh]) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			ids, err := s.engines[sh].AddBatch(subs[sh])
			errs[sh] = err
			if len(ids) > 0 && ids[0] != firstLocal[sh] {
				panic(fmt.Sprintf("shard: engine %d batch started at local id %d, supervisor expected %d (shard mutated outside the supervisor)", sh, ids[0], firstLocal[sh]))
			}
		}(sh)
	}
	wg.Wait()

	ids := make([]int, m)
	for t := range ids {
		ids[t] = first + t
	}
	for _, err := range errs {
		if err != nil {
			return ids, err
		}
	}
	return ids, nil
}

// Remove deletes the entry with the given global id; the tombstone is
// durable in the owner shard's WAL.
func (s *Sharded) Remove(id int) error {
	s.ingest.Lock()
	defer s.ingest.Unlock()
	s.mu.RLock()
	if id < 0 || id >= len(s.locals) {
		s.mu.RUnlock()
		return fmt.Errorf("shard: no entry with id %d", id)
	}
	lc := s.locals[id]
	s.mu.RUnlock()
	if err := s.engines[lc.shard].Remove(lc.local); err != nil {
		return fmt.Errorf("shard: no entry with id %d", id)
	}
	return nil
}

// --- queries --------------------------------------------------------------

// exactRerank forces every shard's SimilarTrace onto its exact path (one
// kernel evaluation per live entry): any rerank >= the shard's corpus size
// does, and MaxInt always is.
const exactRerank = math.MaxInt

// resolve returns the stored string and location of a live global id.
func (s *Sharded) resolve(id int) (token.String, loc, error) {
	s.mu.RLock()
	if id < 0 || id >= len(s.locals) {
		s.mu.RUnlock()
		return nil, loc{}, fmt.Errorf("shard: no entry with id %d", id)
	}
	lc := s.locals[id]
	s.mu.RUnlock()
	x, ok := s.engines[lc.shard].StringAt(lc.local)
	if !ok {
		return nil, loc{}, fmt.Errorf("shard: no entry with id %d", id)
	}
	return x, lc, nil
}

// storedQuery resolves a global id and prepares the fan-out query from
// the owner engine's stored state — view, feature map, self-similarity,
// sketch vector, band signature — without recomputing any of it: the
// embedding was paid at ingest, never per query. The owner engine
// excludes the id from its own candidates; the other shards see a trace.
func (s *Sharded) storedQuery(id int) (*engine.TraceQuery, error) {
	s.mu.RLock()
	if id < 0 || id >= len(s.locals) {
		s.mu.RUnlock()
		return nil, fmt.Errorf("shard: no entry with id %d", id)
	}
	lc := s.locals[id]
	s.mu.RUnlock()
	tq, err := s.engines[lc.shard].PrepareStoredQuery(lc.local)
	if err != nil {
		return nil, fmt.Errorf("shard: no entry with id %d", id)
	}
	return tq, nil
}

// shardRerank resolves the caller's (k, rerank) into the per-shard
// shortlist width, so the rerank budget is global: a caller asking for R
// reranked candidates pays ~R kernel evaluations across the whole corpus,
// as on the single engine, not R per shard. Each shard still reranks at
// least k candidates — required for the exact-merge guarantee, since the
// global top-k can live entirely inside one shard. The engine's rerank
// conventions are preserved: negative resolves to the same default width
// a single engine would pick, 0 stays sketch-only, and any width covering
// the global corpus forces every shard onto its exact path.
func (s *Sharded) shardRerank(k, rerank int) int {
	if rerank < 0 {
		if k < 0 {
			return exactRerank
		}
		rerank = engine.DefaultRerank(k)
	}
	if rerank == 0 {
		return 0
	}
	if k < 0 || rerank >= s.Len() {
		return exactRerank
	}
	per := (rerank + s.n - 1) / s.n
	if per < k {
		per = k
	}
	return per
}

// prepareQuery builds the shared trace query once, on shard 0's engine.
// Every shard engine is built from the same Options, so the prepared
// sketch vector, band signature, and feature map are valid on all of them
// — the fan-out pays the embedding cost once, not once per shard.
func (s *Sharded) prepareQuery(x token.String) (*engine.TraceQuery, error) {
	return s.engines[0].PrepareTraceQuery(x)
}

// query runs SimilarTracePrepared(tq, k, rerank) on every shard in
// parallel and merges the per-shard top-k exactly: scores are pairwise, so
// sorting the union by (score desc, id asc) and truncating to k reproduces
// the global top-k.
func (s *Sharded) query(tq *engine.TraceQuery, k, rerank int) ([]engine.Neighbor, error) {
	res := make([][]engine.Neighbor, s.n)
	errs := make([]error, s.n)
	var wg sync.WaitGroup
	for sh := range s.engines {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			var t0 time.Time
			if s.fanoutSec != nil {
				t0 = time.Now() //iokvet:allow nondeterm(metric timing only: t0 feeds the fan-out latency histogram and never reaches query results)
			}
			res[sh], errs[sh] = s.engines[sh].SimilarTracePrepared(tq, k, rerank)
			if s.fanoutSec != nil {
				s.fanoutSec[sh].Observe(time.Since(t0)) //iokvet:allow nondeterm(metric timing only: observed duration feeds the latency histogram and never reaches query results)
			}
		}(sh)
	}
	wg.Wait()
	for sh, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	merged := s.merge(res)
	sortNeighbors(merged)
	return truncate(merged, k), nil
}

// merge maps the per-shard results to global ids and concatenates them,
// unsorted, into one preallocated slice.
func (s *Sharded) merge(res [][]engine.Neighbor) []engine.Neighbor {
	total := 0
	for _, ns := range res {
		total += len(ns)
	}
	out := make([]engine.Neighbor, 0, total)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for sh, ns := range res {
		for _, nb := range ns {
			out = append(out, engine.Neighbor{ID: s.globals[sh][nb.ID], Similarity: nb.Similarity})
		}
	}
	return out
}

// Similar returns the k live entries most similar to the given global id,
// bit-identical to what a single engine over the same corpus would return
// (same ids, same float bits, same order) for kernels symmetric in
// floating point, Kast and the featured kernels among them. Every shard
// runs the exact path in parallel, one kernel evaluation per live entry;
// the owner shard drops the query's own id before truncating.
func (s *Sharded) Similar(id, k int) ([]engine.Neighbor, error) {
	tq, err := s.storedQuery(id)
	if err != nil {
		return nil, err
	}
	return s.query(tq, k, exactRerank)
}

// SimilarApprox is Similar answered from the shards' sketch indexes: each
// shard shortlists candidates by sketch score (through its ANN bands when
// enabled) and reranks them with exact kernel values, and the per-shard
// results merge like Similar. The rerank budget is global (see
// shardRerank): the result is exact over the union of the shortlists —
// identical to Similar whenever they cover the true top k, and always
// identical when rerank covers the corpus. rerank follows the engine's
// convention: negative for the default over-fetch, 0 for raw sketch
// scores. The stored sketch and band signature are reused on every shard.
func (s *Sharded) SimilarApprox(id, k, rerank int) ([]engine.Neighbor, error) {
	if _, _, enabled := s.SketchConfig(); !enabled {
		return nil, fmt.Errorf("shard: sketching disabled (Options.SketchDim < 0)")
	}
	tq, err := s.storedQuery(id)
	if err != nil {
		return nil, err
	}
	return s.query(tq, k, s.shardRerank(k, rerank))
}

// SimilarTrace answers query-by-trace without ingesting: the string is
// embedded once (sketch vector plus ANN signature, shared across the
// fan-out), compared against every shard in parallel, and the per-shard
// top-k merge exactly, as in Similar. rerank follows the engine's
// convention with a global budget (see shardRerank); with an exact rerank
// (>= the corpus size) the result is bit-identical to the single engine's.
func (s *Sharded) SimilarTrace(x token.String, k, rerank int) ([]engine.Neighbor, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("shard: empty query string")
	}
	tq, err := s.prepareQuery(x)
	if err != nil {
		return nil, err
	}
	return s.query(tq, k, s.shardRerank(k, rerank))
}

// sortNeighbors orders merged results by decreasing similarity with ties
// by ascending global id — engine.SortNeighbors, the one definition of the
// order engine.Similar produces, which is what makes the merged result
// comparable bit for bit. Within one shard, local id order is global id
// order (both are assigned in arrival order), so the per-shard truncations
// performed before the merge break ties identically.
func sortNeighbors(out []engine.Neighbor) { engine.SortNeighbors(out) }

func truncate(ns []engine.Neighbor, k int) []engine.Neighbor {
	if k >= 0 && k < len(ns) {
		ns = ns[:k]
	}
	return ns
}

// --- accessors ------------------------------------------------------------

// Shards returns the shard count.
func (s *Sharded) Shards() int { return s.n }

// Seed returns the routing hash seed.
func (s *Sharded) Seed() uint64 { return s.seed }

// Kernel returns the kernel every shard engine runs.
func (s *Sharded) Kernel() kernel.Kernel { return s.engines[0].Kernel() }

// SketchConfig reports the shared sketch configuration of the shards.
func (s *Sharded) SketchConfig() (dim int, seed uint64, enabled bool) {
	return s.engines[0].SketchConfig()
}

// ANNConfig reports the shared ANN banding configuration of the shards
// (every shard engine is built from the same Options, so one answer covers
// all of them).
func (s *Sharded) ANNConfig() (bands, rows int, enabled bool) {
	return s.engines[0].ANNConfig()
}

// Len returns the number of live entries across all shards.
func (s *Sharded) Len() int {
	total := 0
	for _, e := range s.engines {
		total += e.Len()
	}
	return total
}

// NextID returns the global id the next Add would assign.
func (s *Sharded) NextID() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.locals)
}

// Repaired returns how many tombstone slots recovery plugged while
// reconciling a torn cross-shard batch (0 after a clean open).
func (s *Sharded) Repaired() int { return s.repaired }

// Err returns the first persistence failure of any shard, or nil. Like
// engine.Err it is sticky: a non-nil value means some shard's in-memory
// state has diverged from its WAL.
func (s *Sharded) Err() error {
	for i, e := range s.engines {
		if err := e.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Errs returns the per-shard sticky persistence errors (nil entries for
// healthy shards). The slice is freshly allocated.
func (s *Sharded) Errs() []error {
	errs := make([]error, s.n)
	for i, e := range s.engines {
		errs[i] = e.Err()
	}
	return errs
}

// Durable reports whether the corpus is backed by per-shard stores.
func (s *Sharded) Durable() bool { return s.stores[0] != nil }

// Stats returns the per-shard store statistics, or nil for an in-memory
// corpus.
func (s *Sharded) Stats() []store.Stats {
	if !s.Durable() {
		return nil
	}
	stats := make([]store.Stats, s.n)
	for i, st := range s.stores {
		stats[i] = st.Stats()
	}
	return stats
}

// StringAt returns a copy of the live corpus string with the given global
// id. ok is false for ids that were never assigned or have been removed —
// the global-id form of engine.StringAt.
func (s *Sharded) StringAt(id int) (token.String, bool) {
	x, _, err := s.resolve(id)
	if err != nil {
		return nil, false
	}
	return x, true
}

// Has reports whether the global id names a live entry, without copying the
// stored string — the global-id form of engine.Has.
func (s *Sharded) Has(id int) bool {
	s.mu.RLock()
	if id < 0 || id >= len(s.locals) {
		s.mu.RUnlock()
		return false
	}
	lc := s.locals[id]
	s.mu.RUnlock()
	return s.engines[lc.shard].Has(lc.local)
}

// Strings returns copies of the live corpus strings in global id order,
// with their global ids.
func (s *Sharded) Strings() ([]token.String, []int) {
	s.mu.RLock()
	locals := append([]loc(nil), s.locals...)
	s.mu.RUnlock()
	var xs []token.String
	var ids []int
	for g, lc := range locals {
		if x, ok := s.engines[lc.shard].StringAt(lc.local); ok {
			xs = append(xs, x)
			ids = append(ids, g)
		}
	}
	return xs, ids
}

// Snapshot checkpoints every shard's store now (concurrently), bounding
// replay work after a crash. It is a no-op for in-memory corpora.
func (s *Sharded) Snapshot() error {
	if !s.Durable() {
		return nil
	}
	errs := make([]error, s.n)
	var wg sync.WaitGroup
	for i, st := range s.stores {
		wg.Add(1)
		go func(i int, st *store.Store) {
			defer wg.Done()
			errs[i] = st.Snapshot()
		}(i, st)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Close checkpoints and closes every shard's store (concurrently). The
// corpus stays usable in memory; further mutations are not persisted. It is
// a no-op for in-memory corpora.
func (s *Sharded) Close() error {
	return s.closeStores()
}

func (s *Sharded) closeStores() error {
	errs := make([]error, s.n)
	var wg sync.WaitGroup
	for i, st := range s.stores {
		if st == nil {
			continue
		}
		wg.Add(1)
		go func(i int, st *store.Store) {
			defer wg.Done()
			errs[i] = st.Close()
		}(i, st)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: close: %w", i, err)
		}
	}
	return nil
}
