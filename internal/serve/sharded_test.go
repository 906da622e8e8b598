package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/linalg"
	"iokast/internal/shard"
	"iokast/internal/store"
	"iokast/internal/token"
	"iokast/internal/trace"
)

func kastEngineOptions() engine.Options {
	return engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2}
}

func shardedOptions(shards int) shard.Options {
	return shard.Options{
		Shards: shards,
		Seed:   7,
		Engine: kastEngineOptions(),
		Store:  store.Options{SnapshotEvery: -1},
	}
}

func testShardedServer(t *testing.T, shards int) *Server {
	t.Helper()
	sh, err := shard.New(shardedOptions(shards))
	if err != nil {
		t.Fatal(err)
	}
	return NewSharded(sh, nil, core.Options{})
}

// TestShardedServeLifecycle drives the full HTTP surface against a
// 3-shard corpus: ingest (single and batch), exact and approximate
// similarity, query-by-trace, the on-demand Gram matrix, delete, health.
func TestShardedServeLifecycle(t *testing.T) {
	s := testShardedServer(t, 3)

	for i, body := range []string{traceA, traceA, traceB} {
		resp := doJSON(t, s, http.MethodPost, "/traces", body, http.StatusCreated)
		if int(resp["id"].(float64)) != i {
			t.Fatalf("POST #%d: id = %v", i, resp["id"])
		}
	}
	resp := doJSON(t, s, http.MethodPost, "/traces/batch",
		fmt.Sprintf(`{"traces": [%q, %q]}`, traceB, traceA), http.StatusCreated)
	if n := resp["count"].(float64); n != 2 {
		t.Fatalf("batch count = %v", n)
	}

	// The duplicate of trace 0 must be its perfect neighbour, across shards.
	resp = doJSON(t, s, http.MethodGet, "/similar?id=0&k=1", "", http.StatusOK)
	ns := resp["neighbors"].([]any)
	if len(ns) != 1 {
		t.Fatalf("neighbors = %v", ns)
	}
	top := ns[0].(map[string]any)
	if int(top["id"].(float64)) != 1 || top["similarity"].(float64) < 0.999999 {
		t.Fatalf("top neighbour = %v, want id 1 at similarity 1", top)
	}
	// Approximate path and query-by-trace work shard-fanned too.
	doJSON(t, s, http.MethodGet, "/similar?id=0&k=2&approx=1", "", http.StatusOK)
	resp = doJSON(t, s, http.MethodPost, "/similar?k=3", traceA, http.StatusOK)
	if got := resp["neighbors"].([]any); len(got) != 3 {
		t.Fatalf("query-by-trace neighbors = %v", got)
	}

	resp = doJSON(t, s, http.MethodGet, "/gram", "", http.StatusOK)
	if ids := resp["ids"].([]any); len(ids) != 5 {
		t.Fatalf("gram ids = %v", ids)
	}

	doJSON(t, s, http.MethodDelete, "/traces/1", "", http.StatusOK)
	doJSON(t, s, http.MethodDelete, "/traces/1", "", http.StatusNotFound)
	resp = doJSON(t, s, http.MethodGet, "/healthz", "", http.StatusOK)
	if n := resp["traces"].(float64); n != 4 {
		t.Fatalf("healthz traces = %v after delete", n)
	}
	if n := resp["shards"].(float64); n != 3 {
		t.Fatalf("healthz shards = %v", n)
	}
	// In-memory sharded corpus has no stores to report.
	doJSON(t, s, http.MethodGet, "/debug/store", "", http.StatusNotFound)
}

// TestShardedServeConcurrent hammers the sharded HTTP surface from many
// goroutines (batch ingest, deletes, exact and query-by-trace reads) under
// the race detector.
func TestShardedServeConcurrent(t *testing.T) {
	s := testShardedServer(t, 4)
	// Seed entries so reads always have targets.
	doJSON(t, s, http.MethodPost, "/traces/batch",
		fmt.Sprintf(`{"traces": [%q, %q, %q]}`, traceA, traceB, traceA), http.StatusCreated)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				// Batch-ingest two, delete one of them.
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/traces/batch",
					strings.NewReader(fmt.Sprintf(`{"traces": [%q, %q]}`, traceA, traceB))))
				if rec.Code != http.StatusCreated {
					t.Errorf("batch: %d %s", rec.Code, rec.Body)
					return
				}
				var resp struct {
					Traces []struct{ ID int } `json:"traces"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Error(err)
					return
				}
				rec = httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete,
					fmt.Sprintf("/traces/%d", resp.Traces[0].ID), nil))
				if rec.Code != http.StatusOK {
					t.Errorf("delete: %d %s", rec.Code, rec.Body)
					return
				}
				rec = httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/similar?id=0&k=3", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("similar: %d %s", rec.Code, rec.Body)
					return
				}
				rec = httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/similar?k=2", strings.NewReader(traceB)))
				if rec.Code != http.StatusOK {
					t.Errorf("query-by-trace: %d %s", rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShardedServeRecovery is the HTTP-level crash test: ingest through a
// durable sharded server, kill it (no Close), then bring up a new server
// over the same directory and check the corpus, the per-shard stats, and
// the similarity answers survived.
func TestShardedServeRecovery(t *testing.T) {
	dir := t.TempDir()
	opt := shardedOptions(3)
	sh, err := shard.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(sh, nil, core.Options{})
	doJSON(t, s, http.MethodPost, "/traces/batch",
		fmt.Sprintf(`{"traces": [%q, %q, %q, %q]}`, traceA, traceA, traceB, traceB), http.StatusCreated)
	doJSON(t, s, http.MethodDelete, "/traces/3", "", http.StatusOK)
	want := doJSON(t, s, http.MethodGet, "/similar?id=0&k=2", "", http.StatusOK)
	// Kill: the server and its stores are simply abandoned.

	sh2, err := shard.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	s2 := NewSharded(sh2, nil, core.Options{})
	resp := doJSON(t, s2, http.MethodGet, "/healthz", "", http.StatusOK)
	if n := resp["traces"].(float64); n != 3 {
		t.Fatalf("recovered traces = %v, want 3", n)
	}
	got := doJSON(t, s2, http.MethodGet, "/similar?id=0&k=2", "", http.StatusOK)
	if fmt.Sprint(want["neighbors"]) != fmt.Sprint(got["neighbors"]) {
		t.Fatalf("similar diverged across recovery:\n want %v\n got %v", want["neighbors"], got["neighbors"])
	}
	resp = doJSON(t, s2, http.MethodGet, "/debug/store", "", http.StatusOK)
	stats := resp["shards"].([]any)
	if len(stats) != 3 {
		t.Fatalf("debug/store shards = %v", stats)
	}
	for i, st := range stats {
		if dir := st.(map[string]any)["dir"].(string); !strings.Contains(dir, shard.ShardDir(i)) {
			t.Fatalf("shard %d stats dir = %q", i, dir)
		}
	}
}

// variedTrace returns small traces that differ in length and op mix.
func variedTrace(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%% name=v%d\nopen fh=1\n", i)
	for j := 0; j <= i%5; j++ {
		b.WriteString("write fh=1 bytes=1024\n")
	}
	for j := 0; j <= i%3; j++ {
		b.WriteString("lseek fh=1\nread fh=1 bytes=512\n")
	}
	b.WriteString("close fh=1\n")
	return b.String()
}

// TestShardedGramMatchesSingle: /gram is evaluated on demand over the live
// strings in global id order, so every shard count serves the single
// engine's response byte for byte, raw and normalised, after a delete. The
// reference is a bare engine given the same traces and delete, its own
// Gram and NormalizedGram written the way /gram writes a matrix.
func TestShardedGramMatchesSingle(t *testing.T) {
	traces := make([]string, 12)
	xs := make([]token.String, len(traces))
	for i := range traces {
		traces[i] = fmt.Sprintf("%q", variedTrace(i))
		tr, err := trace.ParseString(variedTrace(i))
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = core.Convert(tr, core.Options{})
	}
	eng := engine.New(kastEngineOptions())
	if _, err := eng.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	if err := eng.Remove(5); err != nil {
		t.Fatal(err)
	}
	gramBody := func(m *linalg.Matrix, ids []int, extra map[string]any) string {
		resp := map[string]any{"kernel": eng.Kernel().Name(), "ids": ids}
		rows := make([][]float64, m.Rows)
		for i := range rows {
			rows[i] = m.Row(i)
		}
		resp["matrix"] = rows
		for k, v := range extra {
			resp[k] = v
		}
		w := httptest.NewRecorder()
		writeJSON(w, httptest.NewRequest(http.MethodGet, "/gram", nil), http.StatusOK, resp)
		return w.Body.String()
	}
	raw, rawIDs := eng.Gram()
	norm, normIDs, clipped, err := eng.NormalizedGram()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"/gram":              gramBody(raw, rawIDs, nil),
		"/gram?normalized=1": gramBody(norm, normIDs, map[string]any{"clipped_eigenvalues": clipped}),
	}

	batch := `{"traces": [` + strings.Join(traces, ", ") + `]}`
	servers := []*Server{testServer()}
	for _, n := range []int{1, 2, 4, 7} {
		servers = append(servers, testShardedServer(t, n))
	}
	for _, s := range servers {
		doJSON(t, s, http.MethodPost, "/traces/batch", batch, http.StatusCreated)
		doJSON(t, s, http.MethodDelete, "/traces/5", "", http.StatusOK)
	}
	get := func(s *Server, target string) string {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %s", target, w.Code, w.Body)
		}
		return w.Body.String()
	}
	for target, want := range want {
		for _, s := range servers {
			if got := get(s, target); got != want {
				t.Errorf("GET %s at %d shards differs from the single engine:\n got %s\nwant %s", target, s.c.Shards(), got, want)
			}
		}
	}
}

// TestServeGramWorkers: /gram evaluates at the corpus's -workers bound, and
// the bound changes no bit of the matrix. A 4-shard corpus of load traces
// at Workers 1 answers /gram and /gram?normalized=1 exactly as one at the
// default bound does.
func TestServeGramWorkers(t *testing.T) {
	_, batch := workloadBatch(t, 3, 48)
	get := func(workers int) map[string]string {
		opt := shardedOptions(4)
		opt.Engine.Workers = workers
		sh, err := shard.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSharded(sh, nil, core.Options{})
		if workers > 0 && s.c.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", s.c.Workers(), workers)
		}
		doJSON(t, s, http.MethodPost, "/traces/batch", string(batch), http.StatusCreated)
		out := map[string]string{}
		for _, target := range []string{"/gram", "/gram?normalized=1"} {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			if w.Code != http.StatusOK {
				t.Fatalf("GET %s at Workers %d: status %d, body %s", target, workers, w.Code, w.Body)
			}
			out[target] = w.Body.String()
		}
		return out
	}
	serial, def := get(1), get(0)
	for target, want := range def {
		if serial[target] != want {
			t.Errorf("GET %s at Workers 1 differs from the default bound", target)
		}
	}
}
