package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"iokast/internal/classify"
	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/kernel"
	"iokast/internal/shard"
	"iokast/internal/store"
	"iokast/internal/stream"
	"iokast/internal/token"
)

// maxTraceBody bounds how much of a POST /traces body is read; a trace of
// this size is far beyond anything the pipeline is tuned for.
const maxTraceBody = 16 << 20

// maxBatchBody bounds a POST /traces/batch request.
const maxBatchBody = 64 << 20

// maxBatchTraces bounds how many traces one batch may carry; bigger
// ingests should be split, which also bounds single-record WAL frames.
const maxBatchTraces = 4096

// maxGramTraces bounds the live corpus GET /gram evaluates on demand: the
// matrix costs n(n+1)/2 kernel evaluations and n^2 floats of response.
const maxGramTraces = 1024

// Server routes HTTP requests onto one shared corpus. Concurrency control
// lives entirely in the corpus and the label registry; handlers hold no
// state of their own.
type Server struct {
	c    *shard.Sharded
	cls  *classify.Online
	copt core.Options
	mux  *http.ServeMux

	// handler is what ServeHTTP runs: the bare mux, or the mux wrapped in
	// the telemetry middleware once ConfigureTelemetry has been called.
	handler http.Handler
	tel     *telemetry

	// streams holds the in-flight streaming-ingest sessions (POST /ingest).
	// Built with defaults in finish; ConfigureStream swaps in tuned bounds
	// before the server starts accepting requests.
	streams *stream.Registry
}

// New serves one existing engine as a one-shard corpus (shard.Adopt); st
// may be nil for an in-memory server (no /debug/store).
func New(eng *engine.Engine, st *store.Store, reg *classify.Registry, copt core.Options) *Server {
	return NewSharded(shard.Adopt(eng, st), reg, copt)
}

// NewSharded serves a corpus of any shard count.
func NewSharded(sh *shard.Sharded, reg *classify.Registry, copt core.Options) *Server {
	if reg == nil {
		reg = classify.NewRegistry()
	}
	s := &Server{c: sh, copt: copt}
	s.cls = classify.NewOnline(sh, reg)
	s.streams = stream.NewRegistry(stream.Config{Classifier: s.cls, Convert: s.copt})
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/traces", s.handleTraces)
	s.mux.HandleFunc("/traces/batch", s.handleTracesBatch)
	s.mux.HandleFunc("/traces/", s.handleTraceByID)
	s.mux.HandleFunc("/similar", s.handleSimilar)
	s.mux.HandleFunc("/labels", s.handleLabels)
	s.mux.HandleFunc("/labels/", s.handleLabelByID)
	s.mux.HandleFunc("/classify", s.handleClassify)
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/gram", s.handleGram)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/debug/store", s.handleStoreStats)
	s.handler = s.mux
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Close releases the server's background resources (the stream registry's
// idle sweeper). The server keeps serving if asked, but idle streaming
// sessions are then only swept on demand.
func (s *Server) Close() { s.streams.Close() }

// bodyPrealloc caps what readBody allocates on the strength of a declared
// Content-Length alone; a body beyond it is read into a buffer that grows
// only as its bytes arrive.
const bodyPrealloc = 1 << 20

// readBody reads the request body up to limit+1 bytes, so that a body over
// limit shows by its length. The buffer starts at the declared
// Content-Length plus one (the read that sees EOF then needs no growth),
// capped at bodyPrealloc, where io.ReadAll would double from 512 bytes.
func readBody(r *http.Request, limit int) ([]byte, error) {
	size := 512
	if cl := r.ContentLength; cl >= 0 {
		size = int(min(cl, int64(limit), bodyPrealloc)) + 1
	}
	buf := make([]byte, 0, size)
	body := io.LimitReader(r.Body, int64(limit)+1)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// readTraceBody reads one trace from the request body and converts it in
// one pass, returning its header name and weighted string. It writes the
// HTTP error itself when it returns ok = false.
func (s *Server) readTraceBody(w http.ResponseWriter, r *http.Request) (string, token.String, bool) {
	body, err := readBody(r, maxTraceBody)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "read body: %v", err)
		return "", nil, false
	}
	if len(body) > maxTraceBody {
		httpError(w, r, http.StatusRequestEntityTooLarge, "trace exceeds %d bytes", maxTraceBody)
		return "", nil, false
	}
	name, x, err := core.ConvertText(string(body), s.copt)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "parse trace: %v", err)
		return "", nil, false
	}
	return name, x, true
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, r, http.StatusMethodNotAllowed, "POST a trace in the canonical text format")
		return
	}
	name, x, ok := s.readTraceBody(w, r)
	if !ok {
		return
	}
	id := s.c.Add(x)
	if id < 0 {
		httpError(w, r, http.StatusInsufficientStorage, "%v", engine.ErrIDSpaceFull)
		return
	}
	if err := s.c.Err(); err != nil {
		// Ingested in memory but not persisted: tell the client instead of
		// silently serving state a restart would lose.
		httpError(w, r, http.StatusInternalServerError, "trace %d accepted but persistence failed: %v", id, err)
		return
	}
	writeJSON(w, r, http.StatusCreated, map[string]any{
		"id":     id,
		"name":   name,
		"tokens": len(x),
		"weight": x.Weight(),
	})
}

func (s *Server) handleTracesBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, r, http.StatusMethodNotAllowed, `POST {"traces": ["<trace text>", ...]}`)
		return
	}
	body, err := readBody(r, maxBatchBody)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxBatchBody {
		httpError(w, r, http.StatusRequestEntityTooLarge, "batch exceeds %d bytes", maxBatchBody)
		return
	}
	texts, err := decodeBatchBody(body)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "parse batch JSON: %v", err)
		return
	}
	if len(texts) == 0 {
		httpError(w, r, http.StatusBadRequest, "empty batch")
		return
	}
	if len(texts) > maxBatchTraces {
		httpError(w, r, http.StatusRequestEntityTooLarge, "batch of %d traces exceeds limit %d", len(texts), maxBatchTraces)
		return
	}
	// Parse everything before ingesting anything: a batch is all-or-nothing
	// at the validation stage, so one bad trace cannot half-apply it. Each
	// trace is converted in one pass on its own, into its own slots, over
	// the corpus's worker bound; the lowest failing index is reported.
	xs := make([]token.String, len(texts))
	type meta struct {
		ID     int    `json:"id"`
		Name   string `json:"name,omitempty"`
		Tokens int    `json:"tokens"`
		Weight int    `json:"weight"`
	}
	metas := make([]meta, len(texts))
	errs := make([]error, len(texts))
	kernel.ParallelFor(len(texts), s.c.Workers(), func(i int) {
		name, x, err := core.ConvertText(texts[i], s.copt)
		if err != nil {
			errs[i] = err
			return
		}
		xs[i] = x
		metas[i] = meta{Name: name, Tokens: len(x), Weight: x.Weight()}
	})
	for i, err := range errs {
		if err != nil {
			httpError(w, r, http.StatusBadRequest, "trace %d: %v", i, err)
			return
		}
	}
	ids, err := s.c.AddBatch(xs)
	if errors.Is(err, engine.ErrIDSpaceFull) {
		httpError(w, r, http.StatusInsufficientStorage, "%v", err)
		return
	}
	if err == nil {
		// Also honour the sticky error: after any earlier WAL failure the
		// log has a gap, so even a batch whose own append succeeded is not
		// recoverable and must not be acknowledged as durable.
		err = s.c.Err()
	}
	if err != nil {
		httpError(w, r, http.StatusInternalServerError, "batch accepted but persistence failed: %v", err)
		return
	}
	for i, id := range ids {
		metas[i].ID = id
	}
	writeJSON(w, r, http.StatusCreated, map[string]any{
		"count":  len(ids),
		"traces": metas,
	})
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/traces/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "bad trace id %q", idStr)
		return
	}
	if r.Method != http.MethodDelete {
		httpError(w, r, http.StatusMethodNotAllowed, "only DELETE is supported on /traces/{id}")
		return
	}
	if err := s.c.Remove(id); err != nil {
		httpError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	if err := s.c.Err(); err != nil {
		// Removed in memory, but the tombstone may not have reached the
		// WAL, so a restart could bring the trace back. Its label stays,
		// matching what that restart would recover.
		httpError(w, r, http.StatusInternalServerError, "trace %d removed but persistence failed: %v", id, err)
		return
	}
	// A removed trace can never be a neighbour again, so its label goes with
	// it — otherwise GET /labels would count members no query can reach. The
	// trace removal itself is already durable; a failed label cleanup is
	// reported like every other persistence failure rather than swallowed.
	if _, ok := s.cls.Registry().LabelOf(id); ok {
		if err := s.cls.Registry().SetLabel(id, ""); err != nil {
			httpError(w, r, http.StatusInternalServerError,
				"trace %d removed but its label could not be dropped: %v", id, err)
			return
		}
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"removed": id})
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.handleSimilarByID(w, r)
	case http.MethodPost:
		s.handleSimilarByTrace(w, r)
	default:
		httpError(w, r, http.StatusMethodNotAllowed,
			"GET /similar?id=&k=[&approx=1&rerank=] or POST /similar with a trace body")
	}
}

// similarParams parses the k and rerank query parameters shared by the
// /similar forms and /classify. rerank defaults to -1 (the engine's
// over-fetch default); 0 means sketch-only scores, >= corpus size means
// exact. k = 0 is valid and yields an empty neighbour list. Values of
// rerank below -1 have no defined meaning anywhere in the stack and are
// rejected here rather than silently passed through (the engine would
// treat them like -1, which is a trap for clients that meant something
// else).
func similarParams(r *http.Request) (k, rerank int, err error) {
	k, rerank = 10, -1
	if ks := r.URL.Query().Get("k"); ks != "" {
		if k, err = strconv.Atoi(ks); err != nil || k < 0 {
			return 0, 0, fmt.Errorf("bad k %q", ks)
		}
	}
	if rs := r.URL.Query().Get("rerank"); rs != "" {
		if rerank, err = strconv.Atoi(rs); err != nil || rerank < -1 {
			return 0, 0, fmt.Errorf("bad rerank %q (want -1 for the default over-fetch, 0 for sketch scores, or a positive shortlist size)", rs)
		}
	}
	return k, rerank, nil
}

func (s *Server) handleSimilarByID(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "bad or missing id")
		return
	}
	k, rerank, err := similarParams(r)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	approx := r.URL.Query().Get("approx")
	var ns []engine.Neighbor
	if approx == "1" || approx == "true" {
		// Asking for the sketch path on a sketch-disabled corpus is a
		// client error (the request can never succeed against this
		// configuration), not a server fault: 400 with a hint, checked
		// before touching the corpus so the message is always the clear
		// one rather than whatever error bubbles up.
		if _, _, enabled := s.c.SketchConfig(); !enabled {
			httpError(w, r, http.StatusBadRequest,
				"approximate similarity unavailable: sketching is disabled on this server (restart with -sketch-dim > 0, or drop approx=1)")
			return
		}
		ns, err = s.c.SimilarApprox(id, k, rerank)
		if err != nil {
			httpError(w, r, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, r, http.StatusOK, map[string]any{
			"id": id, "neighbors": nonNil(ns), "approx": true, "rerank": rerank,
		})
		return
	}
	ns, err = s.c.Similar(id, k)
	if err != nil {
		httpError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"id": id, "neighbors": nonNil(ns)})
}

// nonNil pins the JSON form of an empty neighbour list to [] rather than
// null, whatever path produced it — k=0 responses must still be valid,
// iterable JSON.
func nonNil(ns []engine.Neighbor) []engine.Neighbor {
	if ns == nil {
		return []engine.Neighbor{}
	}
	return ns
}

// handleSimilarByTrace is query-by-trace: the body is one trace in the
// canonical text format, converted and compared like an ingested trace but
// never added to the corpus, the WAL, or the id space.
func (s *Server) handleSimilarByTrace(w http.ResponseWriter, r *http.Request) {
	name, x, ok := s.readTraceBody(w, r)
	if !ok {
		return
	}
	k, rerank, err := similarParams(r)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	ns, err := s.c.SimilarTrace(x, k, rerank)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{
		"name":      name,
		"tokens":    len(x),
		"weight":    x.Weight(),
		"neighbors": nonNil(ns),
		"rerank":    rerank,
	})
}

// labelsRequest is the POST /labels body: explicit id -> label assignments.
// An empty label removes the id's assignment.
type labelsRequest struct {
	Labels []struct {
		ID    int    `json:"id"`
		Label string `json:"label"`
	} `json:"labels"`
}

// maxLabelsBody bounds a POST /labels request.
const maxLabelsBody = 4 << 20

// handleLabels serves the label registry: POST tags corpus ids with labels
// (validated against the live corpus, persisted atomically when the
// registry is durable), GET lists label -> member count.
func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		reg := s.cls.Registry()
		writeJSON(w, r, http.StatusOK, map[string]any{
			"labels":  reg.Counts(),
			"labeled": reg.Len(),
		})
	case http.MethodPost:
		body, err := readBody(r, maxLabelsBody)
		if err != nil {
			httpError(w, r, http.StatusBadRequest, "read body: %v", err)
			return
		}
		if len(body) > maxLabelsBody {
			httpError(w, r, http.StatusRequestEntityTooLarge, "labels body exceeds %d bytes", maxLabelsBody)
			return
		}
		var req labelsRequest
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, r, http.StatusBadRequest, "parse labels JSON: %v", err)
			return
		}
		if len(req.Labels) == 0 {
			httpError(w, r, http.StatusBadRequest, `empty assignment (want {"labels": [{"id": 0, "label": "reader"}, ...]})`)
			return
		}
		// Validate everything before assigning anything: labels are
		// all-or-nothing like batch ingest, so one bad entry cannot
		// half-apply the request. Removal entries (empty label) skip the
		// liveness check — unlabelling a stale id must always be possible.
		assign := make(map[int]string, len(req.Labels))
		for i, e := range req.Labels {
			if e.Label != "" {
				if err := classify.ValidLabel(e.Label); err != nil {
					httpError(w, r, http.StatusBadRequest, "labels[%d]: %v", i, err)
					return
				}
				if !s.c.Has(e.ID) {
					httpError(w, r, http.StatusNotFound, "labels[%d]: no live trace with id %d", i, e.ID)
					return
				}
			}
			assign[e.ID] = e.Label
		}
		if err := s.cls.Registry().SetLabels(assign); err != nil {
			// SetLabels is all-or-nothing: on error neither memory nor disk
			// changed, so say so plainly.
			httpError(w, r, http.StatusInternalServerError, "labels not applied: %v", err)
			return
		}
		// Close the validate-then-commit race with DELETE /traces/{id}: a
		// trace removed between the liveness check and the commit would keep
		// its fresh label forever (the delete's own cleanup ran before the
		// label existed). Scrubbing after the commit converges in every
		// interleaving — whichever of the two writers runs last sees the
		// other's effect.
		for id, label := range assign {
			if label != "" && !s.c.Has(id) {
				_ = s.cls.Registry().SetLabel(id, "")
			}
		}
		writeJSON(w, r, http.StatusOK, map[string]any{
			"assigned": len(assign),
			"labeled":  s.cls.Registry().Len(),
		})
	default:
		httpError(w, r, http.StatusMethodNotAllowed,
			`GET /labels or POST {"labels": [{"id": 0, "label": "reader"}, ...]}`)
	}
}

// handleLabelByID serves DELETE /labels/{id}: remove one id's label.
func (s *Server) handleLabelByID(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/labels/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "bad label id %q", idStr)
		return
	}
	if r.Method != http.MethodDelete {
		httpError(w, r, http.StatusMethodNotAllowed, "only DELETE is supported on /labels/{id}")
		return
	}
	reg := s.cls.Registry()
	if _, ok := reg.LabelOf(id); !ok {
		httpError(w, r, http.StatusNotFound, "no label on id %d", id)
		return
	}
	if err := reg.SetLabel(id, ""); err != nil {
		httpError(w, r, http.StatusInternalServerError, "unlabel not applied: %v", err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"removed": id})
}

// handleClassify is the paper's application served online: the body is one
// trace in the canonical text format, classified by similarity-weighted
// k-NN vote against the labelled corpus — sketch shortlist plus exact
// rerank where enabled, fanned out across the shards in parallel. The
// trace is never ingested.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, r, http.StatusMethodNotAllowed, "POST /classify?k=&rerank= with a trace body")
		return
	}
	name, x, ok := s.readTraceBody(w, r)
	if !ok {
		return
	}
	k, rerank, err := similarParams(r)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.cls.Classify(x, k, rerank)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{
		"name":       name,
		"tokens":     len(x),
		"weight":     x.Weight(),
		"label":      res.Label,
		"confidence": res.Confidence,
		"votes":      res.Votes,
		"neighbors":  res.Neighbors,
		"rerank":     rerank,
	})
}

func (s *Server) handleGram(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, r, http.StatusMethodNotAllowed, "GET /gram")
		return
	}
	// The matrix is evaluated on demand over the live strings in id order,
	// so every shard count serves the same bits.
	xs, ids := s.c.Strings()
	if len(xs) > maxGramTraces {
		httpError(w, r, http.StatusRequestEntityTooLarge,
			"corpus of %d traces exceeds the /gram limit of %d; use /similar for per-trace neighbours", len(xs), maxGramTraces)
		return
	}
	k := s.c.Kernel()
	m := kernel.GramWorkers(k, xs, s.c.Workers())
	resp := map[string]any{"kernel": k.Name()}
	if norm := r.URL.Query().Get("normalized"); norm == "1" || norm == "true" {
		var clipped int
		var err error
		if m, clipped, err = engine.NormalizeGram(k, m, xs); err != nil {
			httpError(w, r, http.StatusInternalServerError, "normalize: %v", err)
			return
		}
		resp["clipped_eigenvalues"] = clipped
	}
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	resp["ids"] = ids
	resp["matrix"] = rows
	writeJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Strictly read-only: idle streaming sessions are swept by the stream
	// registry's own background ticker, never by probe traffic, so scrape
	// frequency cannot change session-TTL semantics.
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		httpError(w, r, http.StatusMethodNotAllowed, "GET /healthz")
		return
	}
	resp := map[string]any{"status": "ok", "traces": s.c.Len(), "stream_sessions": s.streams.Len()}
	// Per-shard health: one degraded shard degrades the whole instance (a
	// fraction of the id space is no longer durable), and the probe names
	// the shards so operators can see which WALs are failing.
	resp["shards"] = s.c.Shards()
	var down []int
	for i, err := range s.c.Errs() {
		if err != nil {
			down = append(down, i)
		}
	}
	if len(down) > 0 {
		resp["degraded_shards"] = down
	}
	status := http.StatusOK
	if err := s.c.Err(); err != nil {
		// Still serving, but mutations are no longer reaching the WAL:
		// degraded, so orchestrators can rotate the instance out.
		resp["status"] = "degraded"
		resp["persistence_error"] = err.Error()
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, r, status, resp)
}

func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, r, http.StatusMethodNotAllowed, "GET /debug/store")
		return
	}
	if !s.c.Durable() {
		httpError(w, r, http.StatusNotFound, "no store attached (run with --data-dir)")
		return
	}
	// One stats object per shard: each has its own WAL, snapshot chain, and
	// replay backlog.
	writeJSON(w, r, http.StatusOK, map[string]any{"shards": s.c.Stats()})
}

// writeJSON writes v as an indented JSON response. Encoding failures
// cannot be reported to the client (the status line is already out), so
// they go to the request's structured logger — usually a client that hung
// up mid-response, but also the only trace of a genuinely unencodable
// value.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		if lg := requestLogger(r); lg != nil {
			lg.Warn("response encode failed", "status", status, "err", err)
		}
	}
}

func httpError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	writeJSON(w, r, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}
