package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/token"
	"iokast/internal/trace"
)

const traceA = `% name=writerA label=A
open fh=1
write fh=1 bytes=1024
write fh=1 bytes=1024
write fh=1 bytes=1024
close fh=1
`

const traceB = `% name=seekerB label=D
open fh=1
lseek fh=1
read fh=1 bytes=512
lseek fh=1
read fh=1 bytes=512
close fh=1
`

func testServer() *Server {
	eng := engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2})
	return New(eng, nil, nil, core.Options{})
}

func doJSON(t testing.TB, h http.Handler, method, target, body string, wantStatus int) map[string]any {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != wantStatus {
		t.Fatalf("%s %s: status %d (want %d), body %s", method, target, w.Code, wantStatus, w.Body)
	}
	out := map[string]any{}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, target, w.Body, err)
	}
	return out
}

func TestServeTraceLifecycle(t *testing.T) {
	s := testServer()

	// Ingest: same trace twice plus a different one.
	for i, body := range []string{traceA, traceA, traceB} {
		resp := doJSON(t, s, http.MethodPost, "/traces", body, http.StatusCreated)
		if int(resp["id"].(float64)) != i {
			t.Fatalf("POST #%d: id = %v", i, resp["id"])
		}
		if resp["tokens"].(float64) <= 0 {
			t.Fatalf("POST #%d: tokens = %v", i, resp["tokens"])
		}
	}

	// The duplicate of trace 0 must be its perfect neighbour.
	resp := doJSON(t, s, http.MethodGet, "/similar?id=0&k=1", "", http.StatusOK)
	ns := resp["neighbors"].([]any)
	if len(ns) != 1 {
		t.Fatalf("neighbors = %v", ns)
	}
	top := ns[0].(map[string]any)
	if int(top["id"].(float64)) != 1 || top["similarity"].(float64) < 0.999999 {
		t.Fatalf("top neighbour = %v, want id 1 at similarity 1", top)
	}

	// Gram: 3x3, symmetric, and the normalized variant reports PSD info.
	resp = doJSON(t, s, http.MethodGet, "/gram", "", http.StatusOK)
	if ids := resp["ids"].([]any); len(ids) != 3 {
		t.Fatalf("gram ids = %v", ids)
	}
	m := resp["matrix"].([]any)
	if len(m) != 3 || len(m[0].([]any)) != 3 {
		t.Fatalf("gram matrix shape wrong: %v", m)
	}
	resp = doJSON(t, s, http.MethodGet, "/gram?normalized=1", "", http.StatusOK)
	if _, ok := resp["clipped_eigenvalues"]; !ok {
		t.Fatalf("normalized gram missing clipped_eigenvalues: %v", resp)
	}
	diag := resp["matrix"].([]any)[0].([]any)[0].(float64)
	if diag <= 0 {
		t.Fatalf("normalized self-similarity = %v", diag)
	}

	// Remove one and confirm the corpus shrinks.
	doJSON(t, s, http.MethodDelete, "/traces/1", "", http.StatusOK)
	resp = doJSON(t, s, http.MethodGet, "/healthz", "", http.StatusOK)
	if n := resp["traces"].(float64); n != 2 {
		t.Fatalf("healthz traces = %v after delete", n)
	}
	doJSON(t, s, http.MethodDelete, "/traces/1", "", http.StatusNotFound)
}

func TestServeErrors(t *testing.T) {
	s := testServer()
	doJSON(t, s, http.MethodGet, "/traces", "", http.StatusMethodNotAllowed)
	doJSON(t, s, http.MethodPost, "/traces", "not a trace line", http.StatusBadRequest)
	doJSON(t, s, http.MethodPut, "/similar?id=0", "", http.StatusMethodNotAllowed)
	doJSON(t, s, http.MethodGet, "/similar", "", http.StatusBadRequest)
	doJSON(t, s, http.MethodGet, "/similar?id=7", "", http.StatusNotFound)
	doJSON(t, s, http.MethodGet, "/similar?id=0&k=-1", "", http.StatusBadRequest)
	doJSON(t, s, http.MethodGet, "/similar?id=7&approx=1", "", http.StatusNotFound)
	doJSON(t, s, http.MethodGet, "/similar?id=0&approx=1&rerank=zap", "", http.StatusBadRequest)
	doJSON(t, s, http.MethodPost, "/similar", "not a trace line", http.StatusBadRequest)
	doJSON(t, s, http.MethodDelete, "/traces/zap", "", http.StatusBadRequest)
	doJSON(t, s, http.MethodPost, "/gram", "", http.StatusMethodNotAllowed)
}

// TestServeGramCap: /gram is evaluated on demand, so a corpus above the
// cap is refused with a pointer to /similar instead of paying n^2 kernel
// evaluations.
func TestServeGramCap(t *testing.T) {
	s := testServer()
	traces := make([]string, maxGramTraces+1)
	for i := range traces {
		traces[i] = fmt.Sprintf("%q", traceA)
	}
	doJSON(t, s, http.MethodPost, "/traces/batch", `{"traces": [`+strings.Join(traces, ", ")+`]}`, http.StatusCreated)
	resp := doJSON(t, s, http.MethodGet, "/gram", "", http.StatusRequestEntityTooLarge)
	if msg := resp["error"].(string); !strings.Contains(msg, "/similar") {
		t.Fatalf("gram error = %q, want a hint to use /similar", msg)
	}
}

func TestServeSimilarApprox(t *testing.T) {
	s := testServer()
	for _, body := range []string{traceA, traceA, traceB} {
		doJSON(t, s, http.MethodPost, "/traces", body, http.StatusCreated)
	}

	// Approximate with full rerank must agree with the exact endpoint.
	exact := doJSON(t, s, http.MethodGet, "/similar?id=0&k=2", "", http.StatusOK)
	approx := doJSON(t, s, http.MethodGet, "/similar?id=0&k=2&approx=1&rerank=3", "", http.StatusOK)
	if approx["approx"] != true {
		t.Fatalf("approx response not flagged: %v", approx)
	}
	en, an := exact["neighbors"].([]any), approx["neighbors"].([]any)
	if len(en) != len(an) {
		t.Fatalf("exact %v vs approx %v", en, an)
	}
	for i := range en {
		e, a := en[i].(map[string]any), an[i].(map[string]any)
		if e["id"] != a["id"] || e["similarity"] != a["similarity"] {
			t.Fatalf("neighbor %d: exact %v vs approx %v", i, e, a)
		}
	}

	// Sketch-only ranking (rerank=0) still puts the duplicate first.
	resp := doJSON(t, s, http.MethodGet, "/similar?id=0&k=1&approx=1&rerank=0", "", http.StatusOK)
	top := resp["neighbors"].([]any)[0].(map[string]any)
	if int(top["id"].(float64)) != 1 {
		t.Fatalf("sketch-only top neighbour = %v, want id 1", top)
	}
}

func TestServeSimilarByTrace(t *testing.T) {
	s := testServer()
	for _, body := range []string{traceA, traceA, traceB} {
		doJSON(t, s, http.MethodPost, "/traces", body, http.StatusCreated)
	}

	// Query by trace: traceA's duplicate entries are the top matches at
	// similarity 1, and nothing is ingested.
	resp := doJSON(t, s, http.MethodPost, "/similar?k=2&rerank=3", traceA, http.StatusOK)
	ns := resp["neighbors"].([]any)
	if len(ns) != 2 {
		t.Fatalf("neighbors = %v", ns)
	}
	for i, want := range []int{0, 1} {
		n := ns[i].(map[string]any)
		if int(n["id"].(float64)) != want || n["similarity"].(float64) < 0.999999 {
			t.Fatalf("neighbor %d = %v, want id %d at similarity 1", i, n, want)
		}
	}
	health := doJSON(t, s, http.MethodGet, "/healthz", "", http.StatusOK)
	if n := health["traces"].(float64); n != 3 {
		t.Fatalf("query-by-trace ingested something: %v traces", n)
	}
}

func TestServeApproxDisabled(t *testing.T) {
	eng := engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2, SketchDim: -1})
	s := New(eng, nil, nil, core.Options{})
	doJSON(t, s, http.MethodPost, "/traces", traceA, http.StatusCreated)
	// A request that can never succeed against this configuration is the
	// client's mistake, not a server fault: 400, with a message that names
	// the fix instead of leaking an internal error.
	resp := doJSON(t, s, http.MethodGet, "/similar?id=0&approx=1", "", http.StatusBadRequest)
	if msg := resp["error"].(string); !strings.Contains(msg, "sketching is disabled") {
		t.Fatalf("unhelpful sketch-disabled error: %q", msg)
	}
	// Even for an id that does not exist the config error wins: the request
	// is malformed for this server regardless of corpus state.
	doJSON(t, s, http.MethodGet, "/similar?id=99&approx=1", "", http.StatusBadRequest)
	// Query-by-trace degrades to the exact scan instead of failing.
	resp = doJSON(t, s, http.MethodPost, "/similar?k=1", traceA, http.StatusOK)
	top := resp["neighbors"].([]any)[0].(map[string]any)
	if int(top["id"].(float64)) != 0 || top["similarity"].(float64) < 0.999999 {
		t.Fatalf("exact fallback top neighbour = %v", top)
	}
}

func TestServeConcurrentClients(t *testing.T) {
	s := testServer()
	const clients = 8
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			body := traceA
			if c%2 == 1 {
				body = traceB
			}
			for i := 0; i < 5; i++ {
				r := httptest.NewRequest(http.MethodPost, "/traces", strings.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, r)
				if w.Code != http.StatusCreated {
					errc <- fmt.Errorf("client %d: status %d: %s", c, w.Code, w.Body)
					return
				}
				r = httptest.NewRequest(http.MethodGet, "/gram", nil)
				w = httptest.NewRecorder()
				s.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					errc <- fmt.Errorf("client %d: gram status %d", c, w.Code)
					return
				}
			}
			errc <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	resp := doJSON(t, s, http.MethodGet, "/healthz", "", http.StatusOK)
	if n := resp["traces"].(float64); n != clients*5 {
		t.Fatalf("traces = %v, want %d", n, clients*5)
	}
}

// TestServeIDSpaceFull: once the corpus has taken the last id a snapshot
// can hold, ingest is refused with 507 instead of being accepted into a
// corpus that could no longer be persisted.
func TestServeIDSpaceFull(t *testing.T) {
	eng := engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2, SketchDim: -1})
	tr, err := trace.ParseString(traceA)
	if err != nil {
		t.Fatal(err)
	}
	x := core.Convert(tr, core.Options{})
	if err := eng.Insert([]int{engine.MaxIDs - 1}, []token.String{x}); err != nil {
		t.Fatal(err)
	}
	s := New(eng, nil, nil, core.Options{})
	resp := doJSON(t, s, http.MethodPost, "/traces", traceB, http.StatusInsufficientStorage)
	if msg := resp["error"].(string); !strings.Contains(msg, "id space full") {
		t.Fatalf("unhelpful id-space error: %q", msg)
	}
	body, err := json.Marshal(map[string][]string{"traces": {traceA, traceB}})
	if err != nil {
		t.Fatal(err)
	}
	doJSON(t, s, http.MethodPost, "/traces/batch", string(body), http.StatusInsufficientStorage)
	if eng.Len() != 1 {
		t.Fatalf("refused ingest changed the corpus: %d traces", eng.Len())
	}
}
