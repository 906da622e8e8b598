package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/shard"
	"iokast/internal/store"
	"iokast/internal/token"
	"iokast/internal/trace"
)

// durableServer opens a server over dir with automatic snapshots disabled,
// so tests control exactly what is in the WAL vs the snapshot.
func durableServer(t *testing.T, dir string) (*Server, *store.Store) {
	t.Helper()
	eopt := engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2}
	eng, st, err := store.Open(dir, func() *engine.Engine { return engine.New(eopt) },
		store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return New(eng, st, nil, core.Options{}), st
}

func batchBody(traces ...string) string {
	b, _ := json.Marshal(map[string]any{"traces": traces})
	return string(b)
}

// TestServeBatchEndpoint exercises POST /traces/batch: ids are assigned in
// order, the response carries per-trace metadata, and a bad trace rejects
// the whole batch without ingesting anything.
func TestServeBatchEndpoint(t *testing.T) {
	s := testServer()
	resp := doJSON(t, s, http.MethodPost, "/traces/batch", batchBody(traceA, traceB, traceA), http.StatusCreated)
	if resp["count"].(float64) != 3 {
		t.Fatalf("count = %v", resp["count"])
	}
	metas := resp["traces"].([]any)
	for i, m := range metas {
		meta := m.(map[string]any)
		if int(meta["id"].(float64)) != i {
			t.Fatalf("batch meta %d: id %v", i, meta["id"])
		}
		if meta["tokens"].(float64) <= 0 {
			t.Fatalf("batch meta %d: tokens %v", i, meta["tokens"])
		}
	}
	if name := metas[1].(map[string]any)["name"]; name != "seekerB" {
		t.Fatalf("batch meta name = %v", name)
	}

	// All-or-nothing: one bad trace fails the batch, corpus unchanged.
	doJSON(t, s, http.MethodPost, "/traces/batch", batchBody(traceA, "not a trace"), http.StatusBadRequest)
	resp = doJSON(t, s, http.MethodGet, "/healthz", "", http.StatusOK)
	if n := resp["traces"].(float64); n != 3 {
		t.Fatalf("traces = %v after rejected batch, want 3", n)
	}

	doJSON(t, s, http.MethodPost, "/traces/batch", `{"traces": []}`, http.StatusBadRequest)
	doJSON(t, s, http.MethodPost, "/traces/batch", `{`, http.StatusBadRequest)
	doJSON(t, s, http.MethodGet, "/traces/batch", "", http.StatusMethodNotAllowed)
}

// TestServeBatchLowestFailingIndex: with traces parsed in parallel, a batch
// whose traces 1 and 3 are bad still names trace 1, at every worker bound
// and every time, and ingests and logs nothing.
func TestServeBatchLowestFailingIndex(t *testing.T) {
	_, wantErr := trace.ParseString("not a trace")
	if wantErr == nil {
		t.Fatal("bad trace parses")
	}
	body := batchBody(traceA, "not a trace", traceB, "also not a trace", traceA)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eopt := engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: workers}
			eng, st, err := store.Open(t.TempDir(), func() *engine.Engine { return engine.New(eopt) },
				store.Options{SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			s := New(eng, st, nil, core.Options{})
			doJSON(t, s, http.MethodPost, "/traces/batch", batchBody(traceA, traceB), http.StatusCreated)
			before := st.Stats()
			for range 20 {
				resp := doJSON(t, s, http.MethodPost, "/traces/batch", body, http.StatusBadRequest)
				if want := "trace 1: " + wantErr.Error(); resp["error"] != want {
					t.Fatalf("error %q, want %q", resp["error"], want)
				}
			}
			if n := eng.Len(); n != 2 {
				t.Fatalf("corpus holds %d traces after rejected batches, want 2", n)
			}
			if after := st.Stats(); after.Seq != before.Seq || after.AppendedRecords != before.AppendedRecords {
				t.Fatalf("rejected batches reached the WAL: seq %d -> %d, records %d -> %d",
					before.Seq, after.Seq, before.AppendedRecords, after.AppendedRecords)
			}
		})
	}
}

// TestServeBatchFallbackBodies: bodies the one-pass decoder declines go to
// encoding/json and are answered as encoding/json decodes them.
func TestServeBatchFallbackBodies(t *testing.T) {
	jsonErr := func(body string) string {
		var req batchRequest
		err := json.Unmarshal([]byte(body), &req)
		if err == nil {
			t.Fatalf("json.Unmarshal accepts %q", body)
		}
		return "parse batch JSON: " + err.Error()
	}
	escapedA := strings.Replace(batchBody(traceA), "writerA", `\u0041lpha`, 1)
	for _, tc := range []struct {
		name, body string
		status     int
		check      func(resp map[string]any) error
	}{
		{"other key case", `{"Traces": ` + batchBody(traceA)[len(`{"traces":`):], http.StatusCreated, func(resp map[string]any) error {
			if name := resp["traces"].([]any)[0].(map[string]any)["name"]; name != "writerA" {
				return fmt.Errorf("name %v", name)
			}
			return nil
		}},
		{"unicode escape", escapedA, http.StatusCreated, func(resp map[string]any) error {
			if name := resp["traces"].([]any)[0].(map[string]any)["name"]; name != "Alpha" {
				return fmt.Errorf("name %v, want the decoded Alpha", name)
			}
			return nil
		}},
		{"truncated", `{`, http.StatusBadRequest, errorIs(jsonErr(`{`))},
		{"trailing garbage", batchBody(traceA) + " x", http.StatusBadRequest, errorIs(jsonErr(batchBody(traceA) + " x"))},
		{"null traces", `{"traces": null}`, http.StatusBadRequest, errorIs("empty batch")},
		{"empty traces", `{"traces": []}`, http.StatusBadRequest, errorIs("empty batch")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := decodeBatch([]byte(tc.body)); ok && tc.status == http.StatusCreated {
				t.Fatalf("the one-pass decoder takes %q; this case is for encoding/json", tc.body)
			}
			resp := doJSON(t, testServer(), http.MethodPost, "/traces/batch", tc.body, tc.status)
			if err := tc.check(resp); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func errorIs(want string) func(map[string]any) error {
	return func(resp map[string]any) error {
		if resp["error"] != want {
			return fmt.Errorf("error %q, want %q", resp["error"], want)
		}
		return nil
	}
}

// TestServeBatchWorkloadAnswers: a 64-trace load-generator batch on four
// shards answers ids 0..63 in order with the name, token count and weight
// that parsing and converting each trace on its own gives.
func TestServeBatchWorkloadAnswers(t *testing.T) {
	texts, body := workloadBatch(t, 3, 64)
	sh, err := shard.New(shard.Options{Shards: 4, Engine: engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(sh, nil, core.Options{})
	resp := doJSON(t, s, http.MethodPost, "/traces/batch", string(body), http.StatusCreated)
	metas := resp["traces"].([]any)
	if resp["count"].(float64) != 64 || len(metas) != 64 {
		t.Fatalf("count %v, %d metas", resp["count"], len(metas))
	}
	for i, m := range metas {
		tr, err := trace.ParseString(texts[i])
		if err != nil {
			t.Fatal(err)
		}
		x := core.Convert(tr, core.Options{})
		want := map[string]any{"id": float64(i), "tokens": float64(len(x)), "weight": float64(x.Weight())}
		if tr.Name != "" {
			want["name"] = tr.Name
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("trace %d: %v, want %v", i, m, want)
		}
	}
}

// TestServeBodyReadForgedLength: a declared Content-Length sizes the body
// buffer only up to a cap, so a request that declares maxBatchBody bytes
// and sends 10 allocates far less than it declared, and is still refused
// on what it sent.
func TestServeBodyReadForgedLength(t *testing.T) {
	s := testServer()
	r := httptest.NewRequest(http.MethodPost, "/traces/batch", strings.NewReader(`{"traces":`))
	r.ContentLength = maxBatchBody
	w := httptest.NewRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.ServeHTTP(w, r)
	runtime.ReadMemStats(&m1)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
	}
	if d := m1.TotalAlloc - m0.TotalAlloc; d >= 2<<20 {
		t.Fatalf("a 10-byte body declared at %d bytes allocated %d bytes", maxBatchBody, d)
	}
}

// TestServeCrashRecovery is the end-to-end durability test: ingest over
// HTTP (singles, a batch, a delete), kill the server without any snapshot
// of the ingested data (WAL only), restart over the same directory, and
// require the exact same /gram and /similar responses.
func TestServeCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, _ := durableServer(t, dir)

	doJSON(t, s1, http.MethodPost, "/traces", traceA, http.StatusCreated)
	doJSON(t, s1, http.MethodPost, "/traces/batch", batchBody(traceB, traceA, traceB), http.StatusCreated)
	doJSON(t, s1, http.MethodPost, "/traces", traceB, http.StatusCreated)
	doJSON(t, s1, http.MethodDelete, "/traces/2", "", http.StatusOK)

	gramBefore := doJSON(t, s1, http.MethodGet, "/gram", "", http.StatusOK)
	normBefore := doJSON(t, s1, http.MethodGet, "/gram?normalized=1", "", http.StatusOK)
	simBefore := doJSON(t, s1, http.MethodGet, "/similar?id=0&k=3", "", http.StatusOK)
	// Kill: the store is abandoned without Close — no snapshot holds the
	// ingested traces, recovery is WAL replay alone.

	s2, st2 := durableServer(t, dir)
	defer st2.Close()
	gramAfter := doJSON(t, s2, http.MethodGet, "/gram", "", http.StatusOK)
	normAfter := doJSON(t, s2, http.MethodGet, "/gram?normalized=1", "", http.StatusOK)
	simAfter := doJSON(t, s2, http.MethodGet, "/similar?id=0&k=3", "", http.StatusOK)

	if !reflect.DeepEqual(gramBefore, gramAfter) {
		t.Fatalf("raw gram changed across restart:\nbefore %v\nafter  %v", gramBefore, gramAfter)
	}
	if !reflect.DeepEqual(normBefore, normAfter) {
		t.Fatalf("normalized gram changed across restart:\nbefore %v\nafter  %v", normBefore, normAfter)
	}
	if !reflect.DeepEqual(simBefore, simAfter) {
		t.Fatalf("similar changed across restart:\nbefore %v\nafter  %v", simBefore, simAfter)
	}
	// The delete must have survived too.
	doJSON(t, s2, http.MethodDelete, "/traces/2", "", http.StatusNotFound)
	resp := doJSON(t, s2, http.MethodGet, "/healthz", "", http.StatusOK)
	if n := resp["traces"].(float64); n != 4 {
		t.Fatalf("recovered traces = %v, want 4", n)
	}
}

// TestServeDebugStore covers GET /debug/store with and without a store: an
// adopted engine is shard 0 of a one-shard corpus, so its store's stats
// are the one entry of the shards list.
func TestServeDebugStore(t *testing.T) {
	noStore := testServer()
	doJSON(t, noStore, http.MethodGet, "/debug/store", "", http.StatusNotFound)

	dir := t.TempDir()
	s, st := durableServer(t, dir)
	defer st.Close()
	doJSON(t, s, http.MethodPost, "/traces", traceA, http.StatusCreated)
	shards := doJSON(t, s, http.MethodGet, "/debug/store", "", http.StatusOK)["shards"].([]any)
	if len(shards) != 1 {
		t.Fatalf("debug/store shards = %v", shards)
	}
	resp := shards[0].(map[string]any)
	if resp["dir"] != dir {
		t.Fatalf("stats dir = %v", resp["dir"])
	}
	if resp["seq"].(float64) != 1 || resp["appended_records"].(float64) != 1 {
		t.Fatalf("stats = %v", resp)
	}
	doJSON(t, s, http.MethodPost, "/debug/store", "", http.StatusMethodNotAllowed)
}

// TestServeBatchTooLarge: an oversized trace count is rejected up front.
func TestServeBatchTooLarge(t *testing.T) {
	s := testServer()
	traces := make([]string, maxBatchTraces+1)
	for i := range traces {
		traces[i] = "open fh=1\nclose fh=1"
	}
	body, _ := json.Marshal(map[string]any{"traces": traces})
	r := httptest.NewRequest(http.MethodPost, "/traces/batch", strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", w.Code)
	}
}

// removeFailLog is a mutation log whose inserts are written and whose
// removes fail, as on a disk that goes away between the two.
type removeFailLog struct{}

func (removeFailLog) LogInsert([]int, []token.String) error { return nil }
func (removeFailLog) LogRemove(int) error                   { return errors.New("disk gone") }

// TestServeDeleteNotDurable: a DELETE whose tombstone never reached the log
// is not acknowledged, because a restart would bring the trace back. The
// instance then reports itself degraded, and every later write is refused
// like any write after a persistence failure.
func TestServeDeleteNotDurable(t *testing.T) {
	eng := engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2, Log: removeFailLog{}})
	s := New(eng, nil, nil, core.Options{})
	doJSON(t, s, http.MethodPost, "/traces", traceA, http.StatusCreated)
	resp := doJSON(t, s, http.MethodDelete, "/traces/0", "", http.StatusInternalServerError)
	if msg := resp["error"].(string); !strings.Contains(msg, "disk gone") {
		t.Fatalf("DELETE error does not name the log failure: %q", msg)
	}
	resp = doJSON(t, s, http.MethodGet, "/healthz", "", http.StatusServiceUnavailable)
	if resp["status"] != "degraded" || fmt.Sprint(resp["degraded_shards"]) != "[0]" {
		t.Fatalf("healthz after a failed tombstone = %v", resp)
	}
	doJSON(t, s, http.MethodPost, "/traces", traceB, http.StatusInternalServerError)
	doJSON(t, s, http.MethodPost, "/traces/batch", batchBody(traceA, traceB), http.StatusInternalServerError)
}
