package shard

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/matrixio"
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

// Sharded is the corpus: one or more hash-routed shards. Every trace lives
// in exactly one shard, engines[Route(id)], which stores it under its
// corpus-wide id. Mutations touch only the owner shard (sub-batches of
// AddBatch run in parallel across shards), and similarity queries fan out
// to every shard in parallel and merge exactly. All methods are safe for
// concurrent use.
//
// The ingest lock serialises batches across several shards: it fixes the
// global id order and bounds what a crash can tear across shard WALs to
// one in-flight batch. Their representations are built under it. A
// one-shard corpus's AddBatch is its engine's, which builds them outside
// any lock and assigns ids under its own write lock. Remove takes no
// supervisor lock.
type Sharded struct {
	n    int
	seed uint64

	engines []*engine.Engine
	stores  []*store.Store // nil entries when in-memory

	ingest sync.Mutex // serialises multi-shard batches, fixing the global id order

	fanoutSec []*obs.Histogram // per-shard fan-out latency; nil = no telemetry
}

// New returns an in-memory sharded corpus: engines only, no manifest, no
// durability.
func New(opt Options) (*Sharded, error) { return open("", opt) }

// Open recovers (or initialises) a durable sharded corpus from dir. The
// directory holds a MANIFEST pinning shard count, hash seed, and
// kernel/sketch config, plus one store subdirectory (WAL + snapshot chain)
// per shard. Every shard is recovered concurrently; a directory whose
// manifest disagrees with opt is refused. The recovered corpus is the union
// of the shards, and the next id follows the highest id any shard holds.
// A batch that a crash tore across shard WALs keeps the sub-batches that
// committed; the ids of a lost sub-batch never existed and read as absent.
func Open(dir string, opt Options) (*Sharded, error) {
	if dir == "" {
		return nil, fmt.Errorf("shard: empty directory (use New for an in-memory corpus)")
	}
	return open(dir, opt)
}

// Adopt serves one existing engine, with its store when st is not nil, as
// a one-shard corpus. It writes no MANIFEST and registers no telemetry; the
// engine keeps its own log and metrics. The caller may go on writing to eng
// directly, also concurrently with the corpus: a one-shard corpus's
// AddBatch is the engine's, which assigns ids under the engine's write
// lock, and NextID reads the engine.
func Adopt(eng *engine.Engine, st *store.Store) *Sharded {
	return &Sharded{n: 1, engines: []*engine.Engine{eng}, stores: []*store.Store{st}}
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
	if _, err := engine.KastKernel(opt.Engine.Kernel); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
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
		n: n, seed: opt.Seed,
		engines: make([]*engine.Engine, n),
		stores:  make([]*store.Store, n),
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
			s.Close()
			return nil, firstErr
		}
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

// --- mutations ------------------------------------------------------------

// Add inserts a weighted string and returns its global id. Ids are assigned
// sequentially and never reused; the entry lives only in its routed shard,
// which pays the insertion's one kernel evaluation, the self-similarity.
// Persistence failures surface through Err, exactly as on the single
// engine, and a full id space makes Add return -1, as it does there.
func (s *Sharded) Add(x token.String) int {
	ids, _ := s.AddBatch([]token.String{x})
	if ids == nil {
		return -1
	}
	return ids[0]
}

// AddBatch inserts m strings in one step and returns their global ids,
// which are consecutive. The batch is split by routing into per-shard
// sub-batches that are inserted in parallel under their global ids, each
// paying one WAL record and one fsync in its own shard — cross-shard
// ingest scales with the shard count. One id space spans the shards, so a
// batch that would run past matrixio.MaxSlots is refused whole with
// engine.ErrIDSpaceFull before any shard sees it. Otherwise the returned
// error is the first per-shard persistence error; as with the single
// engine, the in-memory insertion has still happened.
// With one shard, every id routes to shard 0, whose engine's AddBatch
// assigns the ids itself.
func (s *Sharded) AddBatch(xs []token.String) ([]int, error) {
	m := len(xs)
	if m == 0 {
		return nil, nil
	}
	if s.n == 1 {
		return s.engines[0].AddBatch(xs)
	}
	s.ingest.Lock()
	defer s.ingest.Unlock()
	next := s.nextID()
	if next+m > matrixio.MaxSlots {
		return nil, fmt.Errorf("%w: batch of %d at id %d", engine.ErrIDSpaceFull, m, next)
	}
	ids := make([]int, m)
	subIDs := make([][]int, s.n)
	subs := make([][]token.String, s.n)
	for t, x := range xs {
		g := next + t
		sh := Route(g, s.seed, s.n)
		ids[t] = g
		subIDs[sh] = append(subIDs[sh], g)
		subs[sh] = append(subs[sh], x)
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
			errs[sh] = s.engines[sh].Insert(subIDs[sh], subs[sh])
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ids, err
		}
	}
	return ids, nil
}

// Remove deletes the entry with the given global id; the tombstone is
// durable in the owner shard's WAL, which that shard's engine orders, so
// Remove never waits for a batch on the ingest lock.
func (s *Sharded) Remove(id int) error {
	if err := s.owner(id).Remove(id); err != nil {
		return fmt.Errorf("shard: no entry with id %d", id)
	}
	return nil
}

// owner returns the engine that stores the global id.
func (s *Sharded) owner(id int) *engine.Engine {
	return s.engines[Route(id, s.seed, s.n)]
}

// --- queries --------------------------------------------------------------

// exactRerank forces every shard's SimilarTrace onto its exact path (one
// kernel evaluation per live entry): any rerank >= the shard's corpus size
// does, and MaxInt always is.
const exactRerank = math.MaxInt

// storedQuery prepares the fan-out query for a live global id from the
// owner engine's stored state — view, self-similarity, sketch vector —
// without recomputing any of it: the embedding was paid at ingest, never
// per query. The owner engine excludes the id
// from its own candidates; the other shards see a trace.
func (s *Sharded) storedQuery(id int) (*engine.TraceQuery, error) {
	tq, err := s.owner(id).PrepareStoredQuery(id)
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
// sketch vector and self-similarity are valid on all of them — the
// fan-out pays the embedding cost once, not once per shard.
func (s *Sharded) prepareQuery(x token.String) (*engine.TraceQuery, error) {
	return s.engines[0].PrepareTraceQuery(x)
}

// query runs SimilarTracePrepared(tq, k, rerank) on every shard in
// parallel and merges the per-shard top-k exactly: scores are pairwise, so
// sorting the union by (score desc, id asc) and truncating to k reproduces
// the global top-k. The calling goroutine queries shard 0 itself, so a
// one-shard corpus starts no goroutine at all.
func (s *Sharded) query(tq *engine.TraceQuery, k, rerank int) ([]engine.Neighbor, error) {
	res := make([][]engine.Neighbor, s.n)
	errs := make([]error, s.n)
	run := func(sh int) {
		var t0 time.Time
		if s.fanoutSec != nil {
			t0 = time.Now() //iokvet:allow nondeterm(metric timing only: t0 feeds the fan-out latency histogram and never reaches query results)
		}
		res[sh], errs[sh] = s.engines[sh].SimilarTracePrepared(tq, k, rerank)
		if s.fanoutSec != nil {
			s.fanoutSec[sh].Observe(time.Since(t0)) //iokvet:allow nondeterm(metric timing only: observed duration feeds the latency histogram and never reaches query results)
		}
	}
	var wg sync.WaitGroup
	for sh := 1; sh < s.n; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			run(sh)
		}(sh)
	}
	run(0)
	wg.Wait()
	for sh, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	total := 0
	for _, ns := range res {
		total += len(ns)
	}
	merged := make([]engine.Neighbor, 0, total)
	for _, ns := range res {
		merged = append(merged, ns...)
	}
	// engine.SortNeighbors is the one definition of the order every engine
	// returns, so the per-shard truncations broke ties exactly as this
	// sort does.
	engine.SortNeighbors(merged)
	return truncate(merged, k), nil
}

// Similar returns the k live entries most similar to the given global id,
// bit-identical to what a single engine over the same corpus would return
// (same ids, same float bits, same order) wherever Kast is symmetric in
// floating point, which it is at the weights real traces carry. Every shard
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
// shard shortlists candidates by sketch score and reranks them with exact
// kernel values, and the per-shard results merge like Similar. The rerank
// budget is global (see shardRerank): the result is exact over the union
// of the shortlists — identical to Similar whenever they cover the true
// top k, and always identical when rerank covers the corpus. rerank
// follows the engine's convention: negative for the default over-fetch, 0
// for raw sketch scores. The stored sketch is reused on every shard.
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
// embedded once (its sketch vector is shared across the fan-out), compared
// against every shard in parallel, and the per-shard top-k merge exactly,
// as in Similar. rerank follows the engine's
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
func (s *Sharded) Kernel() *core.Kast { return s.engines[0].Kernel() }

// SketchConfig reports the shared sketch configuration of the shards.
func (s *Sharded) SketchConfig() (dim int, seed uint64, enabled bool) {
	return s.engines[0].SketchConfig()
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
	s.ingest.Lock()
	defer s.ingest.Unlock()
	return s.nextID()
}

// nextID is one past the highest id any shard engine has inserted. It is
// read from the engines on every call, never cached, so it stays right
// when a caller also writes to an adopted engine directly. Caller holds
// s.ingest, so no multi-shard batch is half inserted.
func (s *Sharded) nextID() int {
	next := 0
	for _, e := range s.engines {
		next = max(next, e.NextID())
	}
	return next
}

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
// the owner engine's StringAt.
func (s *Sharded) StringAt(id int) (token.String, bool) {
	return s.owner(id).StringAt(id)
}

// Has reports whether the global id names a live entry, without copying the
// stored string — the owner engine's Has.
func (s *Sharded) Has(id int) bool {
	return s.owner(id).Has(id)
}

// Strings returns copies of the live corpus strings in global id order,
// with their global ids: the shards' lists, merged by id.
func (s *Sharded) Strings() ([]token.String, []int) {
	type live struct {
		id int
		x  token.String
	}
	var all []live
	for _, e := range s.engines {
		xs, ids := e.Strings()
		for i, id := range ids {
			all = append(all, live{id, xs[i]})
		}
	}
	slices.SortFunc(all, func(a, b live) int { return cmp.Compare(a.id, b.id) })
	xs := make([]token.String, len(all))
	ids := make([]int, len(all))
	for i, l := range all {
		xs[i], ids[i] = l.x, l.id
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
