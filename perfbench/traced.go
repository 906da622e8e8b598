package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"iokast/internal/classify"
	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/iogen"
	"iokast/internal/load"
	"iokast/internal/obs"
	"iokast/internal/serve"
	"iokast/internal/shard"
	"iokast/internal/store"
	"iokast/internal/stream"
	"iokast/internal/token"
	"iokast/internal/trace"
	"iokast/internal/xrand"
)

// The traced run replays a workload's inputs in-process, calling each
// layer's public functions directly and recording a span around every
// call from this file. Nothing inside the program is instrumented for it.
// Layers the workload's timed phase does not reach are still measured, on
// small side replays with the same seed, so every traced run reports every
// per-layer metric.
const (
	tracedQueries  = 256 // classify requests replayed through each path
	tracedPairs    = 2048
	shardCorpus    = 512
	shardAdds      = 16
	streamSessions = 16
	ingestBatch    = 8
	minIngest      = 4 * ingestBatch
)

type tracedRun struct {
	w   workload
	in  inputs
	dir string
	t   tally
	rep report
	tr  *Tracer
	reg *obs.Registry
	req int // last request id handed out
}

func (r *tracedRun) nextReq() int { r.req++; return r.req }

// ok counts one call, failed when err is non-nil, and reports success.
func (r *tracedRun) ok(what string, err error) bool {
	return r.t.record(what, 200, err, is2xx)
}

func (r *tracedRun) metric(name string, v float64, unit string) {
	r.rep.Metrics[name] = metric{v, unit}
}

func runTraced(w workload, seed uint64, seconds int, dir string) (*tracedRun, error) {
	r := &tracedRun{
		w: w, dir: dir, in: buildInputs(w, seed, seconds), tr: newTracer(), reg: obs.NewRegistry(),
		rep: report{Workload: w.name, Seed: seed, Seconds: seconds, Load: "in-process traced replay",
			Checks: map[string]string{}, Metrics: map[string]metric{}, LayerShares: map[string]float64{}},
	}
	queries, ingest, streams := r.replayInputs()

	r.kastPairs()
	eopt, err := engineOptions(engine.NewMetrics(r.reg, nil))
	if err != nil {
		return nil, err
	}
	sopt := store.Options{SnapshotEvery: snapshotEvery, Metrics: store.NewMetrics(r.reg, nil)}
	engDir := filepath.Join(dir, "engine")
	eng, st, err := store.Open(engDir, func() *engine.Engine { return engine.New(eopt) }, sopt)
	if err != nil {
		return nil, err
	}
	labels, err := classify.OpenRegistry(filepath.Join(dir, classify.DefaultLabelsFile))
	if err != nil {
		return nil, err
	}
	if err := addLabelled(eng, labels, r.in.prefill); err != nil {
		return nil, err
	}
	srv := serve.New(eng, st, labels, core.Options{})
	srv.ConfigureStream(stream.Config{Metrics: stream.NewMetrics(r.reg)})
	srv.ConfigureTelemetry(serve.Telemetry{Registry: r.reg, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Close()
	cls := classify.NewOnline(eng, labels)

	if err := r.classifyCounts(srv, queries); err != nil {
		return nil, err
	}
	r.classifySpans(srv, eng, cls, queries)
	if err := r.clientOverhead(srv, queries); err != nil {
		return nil, err
	}
	if err := r.ingestReplay(srv, eng, st, ingest); err != nil {
		return nil, err
	}
	if err := r.storeLayer(st, engDir, eopt, ingest); err != nil {
		return nil, err
	}
	if err := r.streamLayer(cls, streams); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	if err := r.shardLayer(seed, queries, ingest); err != nil {
		return nil, err
	}
	if err := r.tr.WriteFile(filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-%d.json", w.name, seed))); err != nil {
		return nil, err
	}
	return r, nil
}

// replayInputs picks the bodies each replay uses: the workload's own
// classify, ingest and stream requests where its timed phase has them,
// its accuracy probes where it has too few.
func (r *tracedRun) replayInputs() (queries, ingest, streams []labelled) {
	for _, reqs := range r.in.timed {
		for _, q := range reqs {
			switch q.op {
			case opClassify:
				queries = append(queries, labelled{string(q.body), q.cat})
			case opBatch, opIngest:
				ingest = append(ingest, q.bodies...)
			case opStream:
				streams = append(streams, labelled{string(q.body), q.cat})
			}
		}
	}
	if len(queries) < tracedQueries {
		queries = append(queries, r.in.probes...)
	}
	queries = queries[:tracedQueries]
	// The ingest replay alternates two paths and times the first and the
	// last batch of one of them, so it needs at least two batches of each.
	if len(ingest) < minIngest {
		ingest = append(ingest, r.in.probes[:minIngest-len(ingest)]...)
	}
	if len(streams) < streamSessions {
		for _, b := range r.in.probes[len(r.in.probes)-streamSessions:] {
			streams = append(streams, labelled{load.StreamBody(b.text), b.cat})
		}
	}
	return queries, ingest, streams[:streamSessions]
}

func addLabelled(eng *engine.Engine, labels *classify.Registry, bodies []labelled) error {
	assign := map[int]string{}
	for lo := 0; lo < len(bodies); lo += prefillBatch {
		hi := min(lo+prefillBatch, len(bodies))
		xs := make([]token.String, 0, hi-lo)
		for _, b := range bodies[lo:hi] {
			x, err := convert(b.text)
			if err != nil {
				return err
			}
			xs = append(xs, x)
		}
		ids, err := eng.AddBatch(xs)
		if err != nil {
			return err
		}
		for i, id := range ids {
			assign[id] = bodies[lo+i].cat
		}
	}
	return labels.SetLabels(assign)
}

// kastPairs times the kernel on pairs of prefill traces.
func (r *tracedRun) kastPairs() {
	in := core.NewInterner()
	n := min(len(r.in.prefill), 256)
	preps := make([]*core.Prepared, n)
	var bytesSum, tokSum float64
	for i := 0; i < n; i++ {
		x, err := convert(r.in.prefill[i].text)
		r.ok("convert", err)
		preps[i] = in.Prepare(x)
		bytesSum += float64(len(r.in.prefill[i].text))
		tokSum += float64(len(x))
	}
	r.metric("trace.body_bytes", bytesSum/float64(n), "bytes")
	r.metric("core.tokens_per_trace", tokSum/float64(n), "count")
	k := &core.Kast{CutWeight: 2}
	rnd := xrand.New(iogen.ClientSeed(r.rep.Seed, 904))
	var sink float64
	for i := 0; i < tracedPairs; i++ {
		a, b := preps[rnd.Intn(n)], preps[rnd.Intn(n)]
		r.tr.Do(r.nextReq(), 0, "core.kast_compare", func() { sink += k.ComparePrepared(a, b) })
	}
	r.t.attempted += tracedPairs
	r.metric("core.kast_compare_us", medianUS(r.tr.Durations("core.kast_compare")), "us")
	_ = sink
}

func medianUS(ds []time.Duration) float64 { return median(usAll(ds)) }
func medianMS(ds []time.Duration) float64 { return median(msAll(ds)) }

func usAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func (r *tracedRun) scrape() map[string]float64 {
	var b bytes.Buffer
	if err := r.reg.WriteText(&b); err != nil {
		r.ok("scrape", err)
		return nil
	}
	m, err := parseFamilies(&b)
	r.ok("scrape", err)
	return m
}

func classifyRequestOf(q labelled) *http.Request {
	return httptest.NewRequest("POST", fmt.Sprintf("/classify?k=%d", queryK), bytes.NewReader([]byte(q.text)))
}

// classifyCounts sends the queries through the handler alone and reads the
// engine and sketch counters around them: work per classify.
func (r *tracedRun) classifyCounts(srv *serve.Server, queries []labelled) error {
	before := r.scrape()
	for _, q := range queries {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, classifyRequestOf(q))
		if !r.t.record("classify handler", rec.Code, nil, is2xx) {
			return fmt.Errorf("classify handler: status %d: %s", rec.Code, rec.Body)
		}
	}
	d := counterDelta(before, r.scrape(), workCounters)
	n := float64(len(queries))
	searches := max(d["iok_sketch_searches_total"], 1)
	r.metric("engine.kernel_evals_per_op", d["iok_engine_kernel_evals_total"]/n, "count")
	r.metric("engine.reranked_per_query", d["iok_engine_reranked_total"]/n, "count")
	r.metric("sketch.pool_per_search", d["iok_sketch_pool_candidates_total"]/searches, "count")
	r.metric("sketch.flat_fallback_ratio", d["iok_sketch_flat_fallbacks_total"]/searches, "ratio")
	return nil
}

// classifySpans replays each classify request through the handler and then
// through the layers it calls, one public function at a time, on the same
// input. Per request:
//
//	serve.handler         Server.ServeHTTP
//	trace.parse           trace.ParseString
//	core.convert          core.Convert
//	classify.classify     Online.Classify (= engine.similar_trace + vote)
//	engine.similar_trace  Engine.SimilarTrace (= prepare_query + similar_prepared)
//	engine.prepare_query  Engine.PrepareTraceQuery
//	engine.similar_prepared  Engine.SimilarTracePrepared at the default rerank
//	sketch.search         Engine.SimilarTracePrepared at rerank 0 with k = the
//	                      default shortlist: the ANN search alone
//
// so that serve self time = handler - parse - convert - classify, vote =
// classify - similar_trace and rerank = similar_prepared - search.
func (r *tracedRun) classifySpans(srv *serve.Server, eng *engine.Engine, cls *classify.Online, queries []labelled) {
	fetch := engine.DefaultRerank(queryK)
	var self, vote, rerank []float64
	mismatch := 0
	for _, q := range queries {
		req := r.nextReq()
		root, end := r.tr.Begin(req, 0, "replay.classify")
		d := map[string]time.Duration{}
		span := func(name string, f func()) { _, d[name] = r.tr.Do(req, root, name, f) }
		rec := httptest.NewRecorder()
		hreq := classifyRequestOf(q)
		span("serve.handler", func() { srv.ServeHTTP(rec, hreq) })
		var (
			tr  *trace.Trace
			x   token.String
			res *classify.Result
			tq  *engine.TraceQuery
			err error
		)
		span("trace.parse", func() { tr, err = trace.ParseString(q.text) })
		r.ok("parse", err)
		span("core.convert", func() { x = core.Convert(tr, core.Options{}) })
		span("classify.classify", func() { res, err = cls.Classify(x, queryK, -1) })
		r.ok("classify", err)
		span("engine.similar_trace", func() { _, err = eng.SimilarTrace(x, queryK, -1) })
		r.ok("similar_trace", err)
		span("engine.prepare_query", func() { tq, err = eng.PrepareTraceQuery(x) })
		r.ok("prepare_query", err)
		span("engine.similar_prepared", func() { _, err = eng.SimilarTracePrepared(tq, queryK, -1) })
		r.ok("similar_prepared", err)
		span("sketch.search", func() { _, err = eng.SimilarTracePrepared(tq, fetch, 0) })
		r.ok("search", err)
		end()

		var got struct {
			Label string `json:"label"`
		}
		if json.Unmarshal(rec.Body.Bytes(), &got) != nil || res == nil || got.Label != res.Label {
			mismatch++
		}
		self = append(self, us(d["serve.handler"]-d["trace.parse"]-d["core.convert"]-d["classify.classify"]))
		vote = append(vote, us(d["classify.classify"]-d["engine.similar_trace"]))
		rerank = append(rerank, us(d["engine.similar_prepared"]-d["sketch.search"]))
	}
	if mismatch > 0 {
		r.rep.Checks["handler_parity"] = fmt.Sprintf("FAIL: %d of %d handler labels differ from Online.Classify", mismatch, len(queries))
	} else {
		r.rep.Checks["handler_parity"] = fmt.Sprintf("ok: %d handler labels equal Online.Classify", len(queries))
	}

	handler := medianUS(r.tr.Durations("serve.handler"))
	layers := map[string]float64{
		"serve.self_us":           median(self),
		"trace.parse_us":          medianUS(r.tr.Durations("trace.parse")),
		"core.convert_us":         medianUS(r.tr.Durations("core.convert")),
		"engine.prepare_query_us": medianUS(r.tr.Durations("engine.prepare_query")),
		"sketch.search_us":        medianUS(r.tr.Durations("sketch.search")),
		"engine.rerank_us":        median(rerank),
		"classify.vote_us":        median(vote),
	}
	r.metric("serve.classify_handler_us", handler, "us")
	var accounted float64
	for name, v := range layers {
		r.metric(name, v, "us")
		r.rep.LayerShares[name] = v / handler
		accounted += v
	}
	// The layer self times are medians of separate calls, so they account
	// for the handler only approximately; the share says how closely.
	r.metric("serve.accounted_share", accounted/handler, "ratio")
}

// clientOverhead replays the queries over loopback HTTP with the
// workload's client count. Each client span's child is the handler span
// the server side records for it, so the client's self time is the
// round trip outside the handler: connection, framing, and the kernel's
// loopback path.
func (r *tracedRun) clientOverhead(srv *serve.Server, queries []labelled) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.Atoi(req.Header.Get("X-Bench-Span"))
		reqID, _ := strconv.Atoi(req.Header.Get("X-Request-Id"))
		r.tr.Do(reqID, parent, "serve.handler_http", func() { srv.ServeHTTP(w, req) })
	})}
	go func() { _ = hs.Serve(ln) }()
	defer func() { _ = hs.Shutdown(context.Background()) }()

	var wg sync.WaitGroup
	per := len(queries) / r.w.clients
	base := r.req
	r.req += per * r.w.clients
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(first int, qs []labelled) {
			defer wg.Done()
			cl := newClient(ln.Addr().String())
			defer cl.close()
			for i, q := range qs {
				req := first + i
				id, end := r.tr.Begin(req, 0, "client.classify")
				hreq, _ := http.NewRequest("POST", cl.base+fmt.Sprintf("/classify?k=%d", queryK), bytes.NewReader([]byte(q.text)))
				hreq.Header.Set("X-Bench-Span", strconv.Itoa(id))
				hreq.Header.Set("X-Request-Id", strconv.Itoa(req))
				resp, err := cl.hc.Do(hreq)
				status := 0
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					status = resp.StatusCode
				}
				end()
				r.t.record("http classify", status, err, is2xx)
			}
		}(base+c*per+1, queries[c*per:(c+1)*per])
	}
	wg.Wait()
	r.metric("serve.client_overhead_us", medianUS(r.tr.SelfTimes("client.classify")), "us")
	return nil
}

// ingestReplay sends the workload's ingested traces in batches of eight,
// alternately through the batch handler and straight into
// Engine.AddBatch, so both are timed over the same corpus growth. Like the
// end-to-end run, it waits for an automatic snapshot to settle before the
// next batch, so the crash image storeLayer recovers is fixed by the seed.
func (r *tracedRun) ingestReplay(srv *serve.Server, eng *engine.Engine, st *store.Store, ingest []labelled) error {
	before := r.scrape()
	stats := func() (store.Stats, error) { return st.Stats(), nil }
	batches := 0
	for lo := 0; lo < len(ingest); lo += ingestBatch {
		bs := ingest[lo:min(lo+ingestBatch, len(ingest))]
		req := r.nextReq()
		if batches%2 == 0 {
			hreq := batchRequest(bs)
			rec := httptest.NewRecorder()
			r.tr.Do(req, 0, "serve.batch_handler", func() {
				srv.ServeHTTP(rec, httptest.NewRequest("POST", hreq.path, bytes.NewReader(hreq.body)))
			})
			if !r.t.record("batch handler", rec.Code, nil, is2xx) {
				return fmt.Errorf("batch handler: status %d: %s", rec.Code, rec.Body)
			}
		} else {
			xs := make([]token.String, len(bs))
			for i, b := range bs {
				x, err := convert(b.text)
				if err != nil {
					return err
				}
				xs[i] = x
			}
			var err error
			r.tr.Do(req, 0, "engine.add_batch", func() { _, err = eng.AddBatch(xs) })
			if !r.ok("add batch", err) {
				return err
			}
		}
		batches++
		if st.Stats().ReplayBacklog >= snapshotEvery {
			if _, err := awaitSnapshot(stats); err != nil {
				return err
			}
		}
	}
	d := counterDelta(before, r.scrape(), append(workCounters, "iok_store_fsync_seconds_count"))
	adds := r.tr.Durations("engine.add_batch")
	r.metric("serve.batch_handler_ms", medianMS(r.tr.Durations("serve.batch_handler")), "ms")
	r.metric("engine.add_batch_first_ms", ms(adds[0]), "ms")
	r.metric("engine.add_batch_last_ms", ms(adds[len(adds)-1]), "ms")
	r.metric("store.fsyncs_per_op", d["iok_store_fsync_seconds_count"]/float64(batches), "count")
	r.metric("store.wal_bytes_per_trace", d["iok_store_wal_appended_bytes_total"]/float64(len(ingest)), "bytes")
	return nil
}

// storeLayer times the WAL append alone on a scratch store, then a
// checkpoint and a crash recovery of the replayed corpus.
func (r *tracedRun) storeLayer(st *store.Store, engDir string, eopt engine.Options, ingest []labelled) error {
	crash := engDir + "-crash"
	if err := copyDir(engDir, crash); err != nil {
		return err
	}
	var err error
	r.tr.Do(r.nextReq(), 0, "store.snapshot", func() { err = st.Snapshot() })
	if !r.ok("snapshot", err) {
		return err
	}
	r.metric("store.snapshot_ms", medianMS(r.tr.Durations("store.snapshot")), "ms")
	r.metric("store.snapshot_bytes", float64(st.Stats().SnapshotBytes), "bytes")

	reg := obs.NewRegistry()
	ropt := eopt
	ropt.Metrics = engine.Metrics{}
	var st2 *store.Store
	r.tr.Do(r.nextReq(), 0, "store.open", func() {
		_, st2, err = store.Open(crash, func() *engine.Engine { return engine.New(ropt) },
			store.Options{SnapshotEvery: snapshotEvery, Metrics: store.NewMetrics(reg, nil)})
	})
	if !r.ok("open", err) {
		return err
	}
	r.metric("store.open_ms", medianMS(r.tr.Durations("store.open")), "ms")
	r.metric("store.replay_records", float64(store.NewMetrics(reg, nil).ReplayRecords.Value()), "count")
	if err := st2.Close(); err != nil {
		return err
	}

	// WAL appends alone: the same batches logged to a store whose engine
	// never sees them.
	_, st3, err := store.Open(filepath.Join(r.dir, "wal"), func() *engine.Engine { return engine.New(ropt) }, store.Options{SnapshotEvery: -1})
	if err != nil {
		return err
	}
	for lo := 0; lo < len(ingest); lo += ingestBatch {
		bs := ingest[lo:min(lo+ingestBatch, len(ingest))]
		xs := make([]token.String, len(bs))
		for i, b := range bs {
			if xs[i], err = convert(b.text); err != nil {
				return err
			}
		}
		r.tr.Do(r.nextReq(), 0, "store.wal_append", func() { err = st3.LogAddBatch(lo, xs) })
		if !r.ok("wal append", err) {
			return err
		}
	}
	r.metric("store.wal_append_us", medianUS(r.tr.Durations("store.wal_append")), "us")
	return st3.Close()
}

// streamLayer feeds whole traces as op events through streaming sessions
// and finishes each one.
func (r *tracedRun) streamLayer(cls *classify.Online, streams []labelled) error {
	reg := obs.NewRegistry()
	sr := stream.NewRegistry(stream.Config{Classifier: cls, Convert: core.Options{}, Metrics: stream.NewMetrics(reg)})
	defer sr.Close()
	var feed time.Duration
	events := 0
	for i, s := range streams {
		sess, err := sr.Get(fmt.Sprintf("bench-%d", i))
		if !r.ok("stream session", err) {
			return err
		}
		req := r.nextReq()
		for _, line := range bytes.Split(bytes.TrimSpace([]byte(s.text)), []byte("\n")) {
			ev, err := stream.ParseEvent(line)
			if !r.ok("stream event", err) {
				return err
			}
			t0 := time.Now()
			_, err = sess.Feed(ev, queryK, -1)
			feed += time.Since(t0)
			events++
			if !r.ok("stream feed", err) {
				return err
			}
		}
		r.tr.Do(req, 0, "stream.finish", func() { _, err = sess.Finish(queryK, -1) })
		if !r.ok("stream finish", err) {
			return err
		}
		sr.Remove(sess.Name())
	}
	m := stream.NewMetrics(reg)
	// Feed is timed in aggregate: most events cost well under a
	// microsecond, so one span each would mostly measure the tracer.
	r.tr.Add(Span{Req: r.nextReq(), Name: "stream.feed_total", End: feed})
	r.metric("stream.feed_us", us(feed)/float64(events), "us")
	r.metric("stream.finish_ms", medianMS(r.tr.Durations("stream.finish")), "ms")
	r.metric("stream.cache_hit_ratio", float64(m.CacheHits.Value())/float64(max(m.WindowTicks.Value(), 1)), "ratio")
	return nil
}

// shardLayer builds a durable four-shard corpus from the seed's prefill
// stream and times query-by-trace, single-trace adds and crash recovery.
func (r *tracedRun) shardLayer(seed uint64, queries, ingest []labelled) error {
	eopt, err := engineOptions(engine.Metrics{})
	if err != nil {
		return err
	}
	sopt := store.Options{SnapshotEvery: snapshotEvery}
	dir := filepath.Join(r.dir, "shards")
	opt := shard.Options{Shards: 4, Seed: 9, Engine: eopt, Store: sopt}
	sh, err := shard.Open(dir, opt)
	if err != nil {
		return err
	}
	bodies := genBodies(seed, streamPrefill, shardCorpus)
	for lo := 0; lo < len(bodies); lo += prefillBatch {
		var xs []token.String
		for _, b := range bodies[lo:min(lo+prefillBatch, len(bodies))] {
			x, err := convert(b.text)
			if err != nil {
				return err
			}
			xs = append(xs, x)
		}
		if _, err := sh.AddBatch(xs); !r.ok("shard add batch", err) {
			return err
		}
	}
	for _, q := range queries[:64] {
		x, err := convert(q.text)
		if err != nil {
			return err
		}
		r.tr.Do(r.nextReq(), 0, "shard.similar_trace", func() { _, err = sh.SimilarTrace(x, queryK, -1) })
		r.ok("shard similar", err)
	}
	for _, b := range ingest[:min(shardAdds, len(ingest))] {
		x, err := convert(b.text)
		if err != nil {
			return err
		}
		r.tr.Do(r.nextReq(), 0, "shard.add", func() { sh.Add(x) })
		r.ok("shard add", sh.Err())
	}
	crash := dir + "-crash"
	if err := copyDir(dir, crash); err != nil {
		return err
	}
	if err := sh.Close(); err != nil {
		return err
	}
	var sh2 *shard.Sharded
	r.tr.Do(r.nextReq(), 0, "shard.open", func() { sh2, err = shard.Open(crash, opt) })
	if !r.ok("shard open", err) {
		return err
	}
	if sh2.Len() != shardCorpus+min(shardAdds, len(ingest)) {
		r.rep.Checks["shard_recovery"] = fmt.Sprintf("FAIL: recovered %d traces, want %d", sh2.Len(), shardCorpus+min(shardAdds, len(ingest)))
	}
	r.metric("shard.similar_trace_us", medianUS(r.tr.Durations("shard.similar_trace")), "us")
	r.metric("shard.add_ms", medianMS(r.tr.Durations("shard.add")), "ms")
	r.metric("shard.open_ms", medianMS(r.tr.Durations("shard.open")), "ms")
	_ = os.RemoveAll(dir)
	return sh2.Close()
}
