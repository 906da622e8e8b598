package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"iokast/internal/store"
)

// Restart is measured several times per run and reported as the median,
// like set-up (workload.setups).
const (
	restartReps = 5
	// snapshotEvery is iokserve's default -snapshot-every, which the
	// benchmark runs with.
	snapshotEvery = 1024
)

// e2eRun is the state of one end-to-end run.
type e2eRun struct {
	w    workload
	seed uint64
	bin  string
	dir  string // scratch directory of this run
	in   inputs
	t    tally
	rep  report
	// corpus is every acknowledged trace by id, and deleted the ids whose
	// deletion was acknowledged; together they define what a restarted
	// server must hold.
	corpus  map[int]labelled
	deleted map[int]bool
	// counts are the work counts that must repeat exactly for the seed.
	counts map[string]float64
}

// report is the detail written next to the result: everything a reader
// needs to see where a number came from.
type report struct {
	Workload    string                   `json:"workload"`
	Seed        uint64                   `json:"seed"`
	Seconds     int                      `json:"seconds"`
	Load        string                   `json:"load"`
	SetupS      []float64                `json:"setup_s"`
	RestartS    []float64                `json:"restart_s"`
	PhaseS      float64                  `json:"timed_phase_s"`
	Completed   int                      `json:"timed_completed"`
	CPUms       float64                  `json:"timed_server_cpu_ms"`
	RSSmb       []float64                `json:"timed_rss_mb_samples,omitempty"`
	HWMmb       float64                  `json:"peak_rss_mb,omitempty"`
	Recall      float64                  `json:"recall_at_10,omitempty"`
	Endpoints   map[string]endpointStats `json:"endpoints"`
	LateMs      *Percentile              `json:"open_loop_late_ms,omitempty"`
	Work        map[string]float64       `json:"work_per_op"`
	WorkRepeat  string                   `json:"work_repeat"`
	PauseMs     float64                  `json:"snapshot_pause_ms,omitempty"`
	Replayed    []float64                `json:"restart_replay_records,omitempty"`
	Checks      map[string]string        `json:"checks"`
	Failures    []string                 `json:"failures,omitempty"`
	Metrics     map[string]metric        `json:"metrics"`
	LayerShares map[string]float64       `json:"layer_shares,omitempty"`
}

type endpointStats struct {
	N   int        `json:"n"`
	P50 Percentile `json:"p50_ms"`
	P90 Percentile `json:"p90_ms"`
	P99 Percentile `json:"p99_ms"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *e2eRun) fail(check, format string, args ...any) {
	r.rep.Checks[check] = "FAIL: " + fmt.Sprintf(format, args...)
}

func (r *e2eRun) pass(check, format string, args ...any) {
	if _, failed := r.rep.Checks[check]; !failed {
		r.rep.Checks[check] = "ok: " + fmt.Sprintf(format, args...)
	}
}

// runE2E runs one workload against iokserve processes and returns the
// end-to-end metrics. An error means the run could not be carried out at
// all; failed output checks are reported through the report's checks.
func runE2E(w workload, seed uint64, seconds int, bin, dir string) (*e2eRun, error) {
	r := &e2eRun{
		w: w, seed: seed, bin: bin, dir: dir,
		corpus: map[int]labelled{}, deleted: map[int]bool{},
		rep: report{Workload: w.name, Seed: seed, Seconds: seconds, Checks: map[string]string{},
			Endpoints: map[string]endpointStats{}, Metrics: map[string]metric{}},
	}
	if w.open {
		r.rep.Load = fmt.Sprintf("open loop, %.0f req/s over %d connections", w.ratePerSec, w.clients)
	} else {
		r.rep.Load = fmt.Sprintf("closed loop, %d client(s)", w.clients)
	}
	r.in = buildInputs(w, seed, seconds)
	defer killAll()

	// Set-up: exec to a prefilled, labelled corpus, several times over.
	// Half of the repetitions run now and half after the checks, so that
	// their median spans the run, not one stretch of host speed.
	early := (w.setups + 1) / 2
	for i := 1; i < early; i++ {
		if err := r.setupOnce(); err != nil {
			return nil, err
		}
	}
	srv, d, err := r.setup(filepath.Join(dir, "setup"))
	if err != nil {
		return nil, err
	}
	r.rep.SetupS = append(r.rep.SetupS, d.Seconds())
	for i, b := range r.in.prefill {
		r.corpus[i] = b
	}

	// Warm-up requests are sent and excluded; then the timed phase, with
	// /proc and /metrics read at both of its boundaries.
	cs := make([]*client, w.clients)
	for i := range cs {
		cs[i] = newClient(srv.addr)
		defer cs[i].close()
	}
	// The load generator needs little CPU; keeping its Go code on one
	// thread stops it competing with the server for both cores.
	prevProcs := runtime.GOMAXPROCS(1)
	runClosed(cs, r.in.warmup, &r.t, nil)

	ctl := newClient(srv.addr)
	defer ctl.close()
	var pause func(sample)
	if !w.open {
		p, err := r.snapshotPause(ctl)
		if err != nil {
			return nil, err
		}
		pause = p
	}
	before, err := r.scrape(ctl)
	if err != nil {
		return nil, err
	}
	p0, err := readProc(srv.pid())
	if err != nil {
		return nil, err
	}
	stopRSS := sampleRSS(srv.pid())
	var samples []sample
	var wall time.Duration
	if w.open {
		samples, wall = runOpen(cs, r.in.timed[0], &r.t)
	} else {
		samples, wall = runClosed(cs, r.in.timed, &r.t, pause)
	}
	rss := stopRSS()
	runtime.GOMAXPROCS(prevProcs)
	p1, err := readProc(srv.pid())
	if err != nil {
		return nil, err
	}
	after, err := r.scrape(ctl)
	if err != nil {
		return nil, err
	}
	r.rep.RSSmb = rss
	r.summarise(samples, wall, p0, p1, before, after)

	// Label what was ingested, let any snapshot the writes triggered
	// finish, then crash the server and restart it from the same bytes.
	if err := r.absorb(ctl, samples); err != nil {
		return nil, err
	}
	if err := r.settleStores(ctl); err != nil {
		return nil, err
	}
	srv.kill()
	crashed := srv.dir
	for i := 0; i < restartReps; i++ {
		s, d, err := r.restart(crashed, filepath.Join(dir, fmt.Sprintf("restart-%d", i)))
		if err != nil {
			return nil, err
		}
		r.rep.RestartS = append(r.rep.RestartS, d.Seconds())
		replayed, err := r.replayed(s)
		if err != nil {
			return nil, err
		}
		r.rep.Replayed = append(r.rep.Replayed, replayed)
		if i < restartReps-1 {
			s.kill()
			_ = os.RemoveAll(s.dir)
		} else {
			srv = s
		}
	}
	if err := r.verify(srv); err != nil {
		return nil, err
	}
	srv.kill()
	for i := early; i < w.setups; i++ {
		if err := r.setupOnce(); err != nil {
			return nil, err
		}
	}

	// Every restart recovered from a copy of the same crash image, so each
	// must have replayed the same WAL records.
	for _, n := range r.rep.Replayed {
		if n != r.rep.Replayed[0] {
			r.fail("replay_repeat", "restarts of one crash image replayed %v WAL records", r.rep.Replayed)
		}
	}
	r.pass("replay_repeat", "each restart replayed %.0f WAL records", r.rep.Replayed[0])
	r.counts["restart:iok_store_replay_records_total"] = r.rep.Replayed[0]
	r.checkRepeat()

	r.rep.Metrics["setup_s"] = metric{median(r.rep.SetupS), "s"}
	r.rep.Metrics["restart_s"] = metric{median(r.rep.RestartS), "s"}
	return r, nil
}

// setup starts a server on an empty data directory, loads the prefill in
// batches and labels it with the generator categories.
func (r *e2eRun) setup(dir string) (*server, time.Duration, error) {
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	s, err := startServer(r.bin, dir, r.w)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(s.addr)
	defer c.close()
	for lo := 0; lo < len(r.in.prefill); lo += prefillBatch {
		hi := min(lo+prefillBatch, len(r.in.prefill))
		req := batchRequest(r.in.prefill[lo:hi])
		var resp batchResponse
		if !c.call(&r.t, req.method, req.path, req.body, &resp) {
			return nil, 0, fmt.Errorf("set-up: prefill batch at %d failed: %v", lo, r.t.first)
		}
		for i, tr := range resp.Traces {
			if tr.ID != lo+i {
				return nil, 0, fmt.Errorf("set-up: prefill trace %d was given id %d", lo+i, tr.ID)
			}
		}
	}
	labels := make(map[int]string, len(r.in.prefill))
	for i, b := range r.in.prefill {
		labels[i] = b.cat
	}
	if !c.call(&r.t, "POST", "/labels", labelsBody(labels), nil) {
		return nil, 0, fmt.Errorf("set-up: labelling failed: %v", r.t.first)
	}
	return s, time.Since(t0), nil
}

// setupOnce times one more set-up and discards its server.
func (r *e2eRun) setupOnce() error {
	s, d, err := r.setup(filepath.Join(r.dir, fmt.Sprintf("setup-%d", len(r.rep.SetupS))))
	if err != nil {
		return err
	}
	r.rep.SetupS = append(r.rep.SetupS, d.Seconds())
	s.kill()
	return os.RemoveAll(s.dir)
}

type batchResponse struct {
	Traces []struct {
		ID int `json:"id"`
	} `json:"traces"`
}

func labelsBody(labels map[int]string) []byte {
	type entry struct {
		ID    int    `json:"id"`
		Label string `json:"label"`
	}
	ids := make([]int, 0, len(labels))
	for id := range labels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	es := make([]entry, len(ids))
	for i, id := range ids {
		es[i] = entry{id, labels[id]}
	}
	b, _ := json.Marshal(map[string][]entry{"labels": es})
	return b
}

// scrape reads the server's work counters.
func (r *e2eRun) scrape(c *client) (map[string]float64, error) {
	status, b, err := c.do("GET", "/metrics", nil)
	if !r.t.record("GET /metrics", status, err, is2xx) {
		return nil, fmt.Errorf("scrape /metrics: status %d, %v", status, err)
	}
	return parseFamilies(bytes.NewReader(b))
}

// summarise turns the timed phase into the latency, throughput, CPU and
// memory metrics, per endpoint and never across endpoints.
func (r *e2eRun) summarise(ss []sample, wall time.Duration, p0, p1 ProcSample, before, after map[string]float64) {
	completed := 0
	ops := map[string]bool{}
	var late []float64
	for _, s := range ss {
		if s.ok {
			completed++
		}
		ops[s.req.op] = true
		late = append(late, ms(s.late))
	}
	for op := range ops {
		l := latencies(ss, op)
		r.rep.Endpoints[op] = endpointStats{N: len(l), P50: percentile(l, 50), P90: percentile(l, 90), P99: percentile(l, 99)}
	}
	if r.w.open {
		p := percentile(late, 99)
		r.rep.LateMs = &p
	}
	cpu := p1.CPU - p0.CPU
	r.rep.PhaseS = wall.Seconds()
	r.rep.Completed = completed
	r.rep.CPUms = ms(cpu)
	prim := r.rep.Endpoints[r.w.primary]
	r.rep.Metrics["throughput_rps"] = metric{float64(completed) / wall.Seconds(), "1/s"}
	r.rep.Metrics["cpu_ms_per_op"] = metric{ms(cpu) / float64(max(completed, 1)), "ms"}
	r.rep.Metrics["rss_mb"] = metric{mean(r.rep.RSSmb), "MB"}
	r.rep.HWMmb = float64(p1.HWMkB) / 1024
	r.rep.Metrics["p50_ms"] = metric{prim.P50.Value, "ms"}
	r.rep.Metrics["p90_ms"] = metric{prim.P90.Value, "ms"}
	if !prim.P90.Supported() {
		r.fail("p90_samples", "only %d %s samples beyond p90 (need %d)", prim.P90.Beyond, r.w.primary, minTail)
	}

	r.counts = counterDelta(before, after, workCounters)
	r.rep.Work = map[string]float64{}
	for k, v := range r.counts {
		r.rep.Work[k] = v / float64(max(completed, 1))
	}
}

// checkRepeat is the determinism check of the single-writer workloads: the
// server's work counts over the timed phase, and the WAL records the
// restart replayed, depend only on the seed and the program. So a second
// run of the same seed and size against the same iokserve binary must
// reproduce them exactly. The first such run records them.
func (r *e2eRun) checkRepeat() {
	if r.w.open {
		r.rep.WorkRepeat = "not checked: concurrent writers make the counts order-dependent"
		return
	}
	sum, err := fileDigest(r.bin)
	if err != nil {
		r.fail("work_repeat", "hash server binary: %v", err)
		return
	}
	path := filepath.Join(filepath.Dir(r.dir), "counts", fmt.Sprintf("%s-%d-%ds-%s.txt", r.w.name, r.seed, r.rep.Seconds, sum[:16]))
	got := formatCounts(r.counts)
	prev, err := os.ReadFile(path)
	switch {
	case err == nil && string(prev) != got:
		r.fail("work_repeat", "work counts differ from an earlier run of seed %d:\nearlier:\n%snow:\n%s", r.seed, prev, got)
		r.rep.WorkRepeat = "differs"
	case err == nil:
		r.pass("work_repeat", "work counts equal an earlier run of seed %d", r.seed)
		r.rep.WorkRepeat = "repeated exactly"
	default:
		_ = os.MkdirAll(filepath.Dir(path), 0o755)
		_ = os.WriteFile(path, []byte(got), 0o644)
		r.rep.WorkRepeat = "first run of this seed: recorded"
	}
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// absorb records what the timed phase acknowledged (ingested ids, deleted
// ids) and labels the new traces, so the restarted server can be checked
// against it and classified against.
func (r *e2eRun) absorb(c *client, ss []sample) error {
	fresh := map[int]string{}
	for _, s := range ss {
		if !s.ok {
			continue
		}
		switch s.req.op {
		case opBatch:
			var resp batchResponse
			if err := json.Unmarshal(s.resp, &resp); err != nil || len(resp.Traces) != len(s.req.bodies) {
				return fmt.Errorf("batch response %q: %v", s.resp, err)
			}
			for i, tr := range resp.Traces {
				r.corpus[tr.ID] = s.req.bodies[i]
				fresh[tr.ID] = s.req.bodies[i].cat
			}
		case opIngest:
			var resp struct {
				ID int `json:"id"`
			}
			if err := json.Unmarshal(s.resp, &resp); err != nil {
				return fmt.Errorf("ingest response %q: %v", s.resp, err)
			}
			r.corpus[resp.ID] = s.req.bodies[0]
			fresh[resp.ID] = s.req.bodies[0].cat
		case opDelete:
			r.deleted[s.req.id] = true
		}
	}
	for id := range r.deleted {
		delete(fresh, id)
	}
	if len(fresh) > 0 && !c.call(&r.t, "POST", "/labels", labelsBody(fresh), nil) {
		return fmt.Errorf("labelling ingested traces failed: %v", r.t.first)
	}
	return nil
}

// storeStats is GET /debug/store: one store's stats, or one per shard.
type storeStats struct {
	store.Stats
	Shards []store.Stats `json:"shards"`
}

// stores returns the stats of every store of the server.
func (r *e2eRun) stores(c *client) ([]store.Stats, error) {
	var st storeStats
	if !c.call(&r.t, "GET", "/debug/store", nil, &st) {
		return nil, fmt.Errorf("GET /debug/store failed: %v", r.t.first)
	}
	if len(st.Shards) > 0 {
		return st.Shards, nil
	}
	return []store.Stats{st.Stats}, nil
}

// storeAt returns a stats reader for the i-th store of the server.
func (r *e2eRun) storeAt(c *client, i int) func() (store.Stats, error) {
	return func() (store.Stats, error) {
		all, err := r.stores(c)
		if err != nil {
			return store.Stats{}, err
		}
		if i >= len(all) {
			return store.Stats{}, fmt.Errorf("GET /debug/store lists %d stores, want at least %d", len(all), i+1)
		}
		return all[i], nil
	}
}

// snapshotPause returns the closed loop's after-request hook for a single
// store. It follows the store's sequence number through the acknowledged
// batches. When they reach the automatic snapshot interval, it waits for
// that snapshot to be written and the WAL rotated before the next request
// goes out. Without the pause, the snapshot would cover whichever batch the
// loop had reached when it ran, so the crash image and the WAL a restart
// replays would change from run to run.
func (r *e2eRun) snapshotPause(c *client) (func(sample), error) {
	st, err := r.storeAt(c, 0)()
	if err != nil {
		return nil, err
	}
	seq, snap := st.Seq, st.SnapshotSeq
	return func(s sample) {
		if !s.ok {
			return
		}
		seq += uint64(len(s.req.bodies))
		if seq-snap < snapshotEvery {
			return
		}
		t0 := time.Now()
		got, err := awaitSnapshot(r.storeAt(c, 0))
		r.rep.PauseMs += ms(time.Since(t0))
		switch {
		case err != nil:
			r.fail("snapshot_point", "%v", err)
		case got.SnapshotSeq != seq || got.Seq != seq:
			r.fail("snapshot_point", "store at seq %d with a snapshot at %d; the loop expected both at %d", got.Seq, got.SnapshotSeq, seq)
		default:
			r.pass("snapshot_point", "automatic snapshot at seq %d", seq)
		}
		snap = seq
	}, nil
}

// settleStores waits until every store of the server has finished any
// snapshot its writes queued.
func (r *e2eRun) settleStores(c *client) error {
	all, err := r.stores(c)
	if err != nil {
		return err
	}
	for i := range all {
		if _, err := awaitSnapshot(r.storeAt(c, i)); err != nil {
			return err
		}
	}
	return nil
}

// replayed reads how many WAL records a freshly recovered server replayed.
func (r *e2eRun) replayed(s *server) (float64, error) {
	c := newClient(s.addr)
	defer c.close()
	m, err := r.scrape(c)
	if err != nil {
		return 0, err
	}
	return m["iok_store_replay_records_total"], nil
}

// sampleRSS reads the process's resident set size every 100ms until the
// returned func is called, which returns the samples in MB. Their mean is
// steadier than the peak (VmHWM), which moves by ±10% from run to run with
// where garbage collections happen to fall. It is also steadier than their
// median: as ingest-durable's corpus grows, the heap steps up near the
// middle of the phase, and the median lands on either side of the step.
func sampleRSS(pid int) func() []float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var out []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- out
				return
			case <-tick.C:
			}
			b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
			if err != nil {
				continue
			}
			if kb, err := parseStatusKB(string(b), "VmRSS"); err == nil {
				out = append(out, float64(kb)/1024)
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}

// The file names internal/store gives snapshots and WAL segments.
const (
	snapName = "snap-%016d.iok"
	walName  = "wal-%016d.log"
)

// awaitSnapshot waits until a store has finished the snapshot its writes
// last queued: the store has no full interval of unsnapshotted mutations,
// and its directory holds just the newest snapshot and the WAL segment
// rotated in after it. stats reads the store's current state. Between a
// snapshot's commit and the end of its WAL rotation the stats alone look
// finished, so the directory is what decides.
func awaitSnapshot(stats func() (store.Stats, error)) (store.Stats, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := stats()
		if err != nil {
			return st, err
		}
		if st.ReplayBacklog < snapshotEvery && snapshotSettled(st.Dir, st.SnapshotSeq) {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("store %s: snapshot did not settle within 60s", st.Dir)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// snapshotSettled reports whether dir's snapshots and WAL segments are
// exactly one snapshot at seq and one segment starting at seq, with no
// snapshot still being written.
func snapshotSettled(dir string, seq uint64) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	snaps, wals := 0, 0
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "snap-"):
			if name != fmt.Sprintf(snapName, seq) {
				return false
			}
			snaps++
		case strings.HasPrefix(name, "wal-"):
			if name != fmt.Sprintf(walName, seq) {
				return false
			}
			wals++
		}
	}
	return snaps == 1 && wals == 1
}

// live returns the number of traces a restarted server must report.
func (r *e2eRun) live() int { return len(r.corpus) - len(r.deleted) }

// restart copies the crashed data directory and recovers a server from it,
// timing exec to a /healthz that reports every acknowledged trace.
func (r *e2eRun) restart(crashed, dir string) (*server, time.Duration, error) {
	if err := copyDir(crashed, dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	s, err := startServer(r.bin, dir, r.w)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(s.addr)
	defer c.close()
	var h struct {
		Traces int `json:"traces"`
	}
	if !c.call(&r.t, "GET", "/healthz", nil, &h) {
		return nil, 0, fmt.Errorf("restart: /healthz failed: %v", r.t.first)
	}
	d := time.Since(t0)
	if h.Traces != r.live() {
		r.fail("durable", "restarted server holds %d traces, %d were acknowledged live", h.Traces, r.live())
	}
	return s, d, nil
}
