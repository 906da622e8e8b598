package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iokast/internal/obs"
)

// Telemetry configures the server's observability surface: a metrics
// registry exposed at GET /metrics, a structured request logger, and the
// latency threshold above which a request is logged as slow. The zero
// value of each field picks a quiet default (fresh registry, discard
// logger, no slow-request log).
type Telemetry struct {
	// Registry receives the HTTP request metrics and the server-level
	// gauges (corpus size, interner size, live stream sessions), and is
	// what GET /metrics renders. Pass the same registry the engine, store,
	// shard, and stream layers were built with so one scrape covers the
	// whole stack.
	Registry *obs.Registry
	// Logger is the structured request logger; every line carries the
	// request id. nil discards logs.
	Logger *slog.Logger
	// SlowRequest logs any request slower than this at Warn level;
	// 0 disables slow-request logging.
	SlowRequest time.Duration
}

// Metric families owned by the HTTP layer.
const (
	httpRequestsName = "iok_http_requests_total"
	httpRequestsHelp = "HTTP requests served, by endpoint, method, and status."
	httpLatencyName  = "iok_http_request_seconds"
	httpLatencyHelp  = "HTTP request latency, by endpoint."
	httpInflightName = "iok_http_inflight_requests"
	httpInflightHelp = "HTTP requests currently being served."
)

// telemetry is the wired form of Telemetry inside the server. The
// instrument caches keep the per-request cost to two sync.Map hits on the
// steady state instead of a registry lookup (label map allocation, label
// rendering, registry lock) per request; both key spaces are bounded by
// the endpoint-label table times the handful of methods and statuses the
// handlers emit.
type telemetry struct {
	cfg      Telemetry
	inflight *obs.Gauge
	counters sync.Map // "endpoint\x00method\x00status" -> *obs.Counter
	hists    sync.Map // endpoint -> *obs.Histogram
}

func (t *telemetry) requestCounter(ep, method string, status int) *obs.Counter {
	key := ep + "\x00" + method + "\x00" + strconv.Itoa(status)
	if c, ok := t.counters.Load(key); ok {
		return c.(*obs.Counter)
	}
	c := t.cfg.Registry.Counter(httpRequestsName, httpRequestsHelp, obs.Labels{
		"endpoint": ep, "method": method, "status": strconv.Itoa(status),
	})
	t.counters.Store(key, c)
	return c
}

func (t *telemetry) latencyHist(ep string) *obs.Histogram {
	if h, ok := t.hists.Load(ep); ok {
		return h.(*obs.Histogram)
	}
	h := t.cfg.Registry.Histogram(httpLatencyName, httpLatencyHelp, obs.Labels{"endpoint": ep})
	t.hists.Store(ep, h)
	return h
}

// ctxKey keys the per-request logger in the request context.
type ctxKey int

const loggerKey ctxKey = iota

// Request ids are process-unique: a short random prefix (so ids from a
// restarted server don't collide in aggregated logs) plus a counter.
var (
	reqSeq    atomic.Uint64
	reqPrefix = func() string {
		var b [4]byte
		_, _ = rand.Read(b[:])
		return hex.EncodeToString(b[:])
	}()
)

// ConfigureTelemetry wires metrics exposition, request logging, and the
// instrumentation middleware onto the server. Call before the server
// starts accepting requests (it re-routes the handler chain). The
// /metrics endpoint serves t.Registry in the Prometheus text format.
func (s *Server) ConfigureTelemetry(t Telemetry) {
	if t.Registry == nil {
		t.Registry = obs.NewRegistry()
	}
	s.tel = &telemetry{cfg: t}
	reg := t.Registry
	s.tel.inflight = reg.Gauge(httpInflightName, httpInflightHelp, nil)

	// Server-level state sampled at scrape time. The closures read through
	// s so ConfigureStream may still swap the session registry afterwards.
	reg.GaugeFunc("iok_corpus_traces", "Live traces in the corpus.", nil,
		func() float64 { return float64(s.c.Len()) })
	reg.GaugeFunc("iok_interner_size", "Distinct literals interned across the corpus.", nil,
		func() float64 { return float64(s.c.InternerSize()) })
	reg.GaugeFunc("iok_stream_live_sessions", "Streaming-ingest sessions currently assembling.", nil,
		func() float64 { return float64(s.streams.Len()) })

	s.mux.Handle("/metrics", reg.Handler())
	s.handler = s.instrument(s.mux)
}

// endpointLabel normalises a request path to a bounded label set so the
// per-endpoint series cardinality cannot grow with client-chosen ids.
func endpointLabel(path string) string {
	switch path {
	case "/traces", "/traces/batch", "/similar", "/labels", "/classify",
		"/ingest", "/gram", "/healthz", "/metrics", "/debug/store":
		return path
	}
	switch {
	case strings.HasPrefix(path, "/traces/"):
		return "/traces/{id}"
	case strings.HasPrefix(path, "/labels/"):
		return "/labels/{id}"
	}
	return "other"
}

// statusRecorder captures the response status and size for metrics and
// logging. Unwrap exposes the underlying writer so http.ResponseController
// (used by the /ingest flusher and read-deadline heartbeat) still reaches
// the real connection through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// instrument wraps the router with the request-metrics and logging
// middleware: request-id injection, per-endpoint counters and latency
// histograms, an in-flight gauge, and per-request / slow-request logs.
func (s *Server) instrument(next http.Handler) http.Handler {
	t := s.tel
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpointLabel(r.URL.Path)
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = reqPrefix + "-" + strconv.FormatUint(reqSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-Id", rid)
		var lg *slog.Logger
		if t.cfg.Logger != nil {
			lg = t.cfg.Logger.With("request_id", rid)
			r = r.WithContext(context.WithValue(r.Context(), loggerKey, lg))
		}

		sr := &statusRecorder{ResponseWriter: w}
		t.inflight.Inc()
		start := time.Now()
		// Deferred so a panicking handler (recovered per-connection by
		// net/http) still decrements the in-flight gauge and gets counted
		// and logged instead of vanishing from the telemetry.
		panicked := true
		defer func() {
			elapsed := time.Since(start)
			t.inflight.Dec()

			if sr.status == 0 {
				if panicked {
					sr.status = http.StatusInternalServerError
				} else {
					sr.status = http.StatusOK
				}
			}
			t.requestCounter(ep, r.Method, sr.status).Inc()
			t.latencyHist(ep).Observe(elapsed)

			if lg != nil {
				if panicked {
					lg.Error("request panicked",
						"method", r.Method, "endpoint", ep, "path", r.URL.Path,
						"bytes", sr.bytes, "duration", elapsed)
				} else {
					lg.Debug("request",
						"method", r.Method, "endpoint", ep, "path", r.URL.Path,
						"status", sr.status, "bytes", sr.bytes, "duration", elapsed)
				}
				if t.cfg.SlowRequest > 0 && elapsed >= t.cfg.SlowRequest {
					lg.Warn("slow request",
						"method", r.Method, "endpoint", ep, "path", r.URL.Path,
						"status", sr.status, "duration", elapsed, "threshold", t.cfg.SlowRequest)
				}
			}
		}()
		next.ServeHTTP(sr, r)
		panicked = false
	})
}

// requestLogger returns the request's structured logger (carrying its
// request id), or nil when telemetry is not configured.
func requestLogger(r *http.Request) *slog.Logger {
	if r == nil {
		return nil
	}
	lg, _ := r.Context().Value(loggerKey).(*slog.Logger)
	return lg
}
