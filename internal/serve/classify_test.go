package serve

import (
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"iokast/internal/classify"
	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/shard"
	"iokast/internal/store"
)

const traceC = `% name=readerC label=C
open fh=1
read fh=1 bytes=4096
read fh=1 bytes=4096
read fh=1 bytes=4096
close fh=1
`

// seedLabeled ingests three traces and labels two of them.
func seedLabeled(t testing.TB, s *Server) {
	t.Helper()
	for _, body := range []string{traceA, traceA, traceC} {
		doJSON(t, s, http.MethodPost, "/traces", body, http.StatusCreated)
	}
	doJSON(t, s, http.MethodPost, "/labels",
		`{"labels": [{"id": 0, "label": "writer"}, {"id": 2, "label": "reader"}]}`,
		http.StatusOK)
}

func TestServeLabelsLifecycle(t *testing.T) {
	s := testServer()
	seedLabeled(t, s)

	resp := doJSON(t, s, http.MethodGet, "/labels", "", http.StatusOK)
	if n := resp["labeled"].(float64); n != 2 {
		t.Fatalf("labeled = %v", n)
	}
	counts := resp["labels"].(map[string]any)
	if counts["writer"].(float64) != 1 || counts["reader"].(float64) != 1 {
		t.Fatalf("counts = %v", counts)
	}

	// Relabel and unlabel.
	doJSON(t, s, http.MethodPost, "/labels", `{"labels": [{"id": 1, "label": "writer"}]}`, http.StatusOK)
	doJSON(t, s, http.MethodDelete, "/labels/2", "", http.StatusOK)
	resp = doJSON(t, s, http.MethodGet, "/labels", "", http.StatusOK)
	if n := resp["labeled"].(float64); n != 2 {
		t.Fatalf("labeled after churn = %v", n)
	}

	// Errors: unknown id (404), dead id after delete, invalid label, bad
	// JSON, empty set, wrong method, unlabelled delete.
	doJSON(t, s, http.MethodPost, "/labels", `{"labels": [{"id": 99, "label": "x"}]}`, http.StatusNotFound)
	doJSON(t, s, http.MethodDelete, "/traces/1", "", http.StatusOK)
	// Removing the trace drops its label with it.
	resp = doJSON(t, s, http.MethodGet, "/labels", "", http.StatusOK)
	if n := resp["labeled"].(float64); n != 1 {
		t.Fatalf("labeled after trace delete = %v", n)
	}
	doJSON(t, s, http.MethodPost, "/labels", `{"labels": [{"id": 1, "label": "x"}]}`, http.StatusNotFound)
	// Removal entries skip the liveness check: unlabelling a stale or dead
	// id must always be possible, batch or not.
	doJSON(t, s, http.MethodPost, "/labels", `{"labels": [{"id": 1, "label": ""}, {"id": 42, "label": ""}]}`, http.StatusOK)
	doJSON(t, s, http.MethodPost, "/labels", `{"labels": [{"id": 0, "label": "bad\nlabel"}]}`, http.StatusBadRequest)
	doJSON(t, s, http.MethodPost, "/labels", `not json`, http.StatusBadRequest)
	doJSON(t, s, http.MethodPost, "/labels", `{"labels": []}`, http.StatusBadRequest)
	doJSON(t, s, http.MethodPut, "/labels", "", http.StatusMethodNotAllowed)
	doJSON(t, s, http.MethodDelete, "/labels/zap", "", http.StatusBadRequest)
	doJSON(t, s, http.MethodDelete, "/labels/7", "", http.StatusNotFound)
	doJSON(t, s, http.MethodGet, "/labels/0", "", http.StatusMethodNotAllowed)
}

func TestServeClassify(t *testing.T) {
	s := testServer()
	seedLabeled(t, s)

	// A near-duplicate of the writer trace classifies as writer, with the
	// duplicate pair as top neighbours.
	resp := doJSON(t, s, http.MethodPost, "/classify?k=3&rerank=3", traceA, http.StatusOK)
	if resp["label"].(string) != "writer" {
		t.Fatalf("label = %v (votes %v)", resp["label"], resp["votes"])
	}
	conf := resp["confidence"].(float64)
	if conf <= 0 || conf > 1 {
		t.Fatalf("confidence = %v", conf)
	}
	votes := resp["votes"].([]any)
	if len(votes) == 0 {
		t.Fatalf("no votes: %v", resp)
	}
	top := votes[0].(map[string]any)
	if top["label"].(string) != "writer" || top["weight"].(float64) <= 0 || top["count"].(float64) < 1 {
		t.Fatalf("top vote = %v", top)
	}
	ns := resp["neighbors"].([]any)
	if len(ns) != 3 {
		t.Fatalf("neighbors = %v", ns)
	}
	// The unlabelled neighbour (id 1) is present without a label field value.
	for _, n := range ns {
		nb := n.(map[string]any)
		if int(nb["id"].(float64)) == 1 {
			if _, ok := nb["label"]; ok {
				t.Fatalf("unlabelled neighbour carries a label: %v", nb)
			}
		}
	}
	// The reader trace classifies as reader.
	resp = doJSON(t, s, http.MethodPost, "/classify", traceC, http.StatusOK)
	if resp["label"].(string) != "reader" {
		t.Fatalf("reader query labelled %v", resp["label"])
	}

	// Errors: wrong method, bad body, bad params.
	doJSON(t, s, http.MethodGet, "/classify", "", http.StatusMethodNotAllowed)
	doJSON(t, s, http.MethodPost, "/classify", "not a trace", http.StatusBadRequest)
	doJSON(t, s, http.MethodPost, "/classify?k=zap", traceA, http.StatusBadRequest)
	doJSON(t, s, http.MethodPost, "/classify?k=-1", traceA, http.StatusBadRequest)
}

// k=0 must yield empty-but-valid JSON bodies — [] and not null, 200 and
// not an error — on every query endpoint, table-driven.
func TestServeKZeroEndpoints(t *testing.T) {
	s := testServer()
	seedLabeled(t, s)
	cases := []struct {
		name, method, target, body string
	}{
		{"similar-by-id", http.MethodGet, "/similar?id=0&k=0", ""},
		{"similar-by-id-approx", http.MethodGet, "/similar?id=0&k=0&approx=1", ""},
		{"similar-by-id-approx-sketchonly", http.MethodGet, "/similar?id=0&k=0&approx=1&rerank=0", ""},
		{"similar-by-trace", http.MethodPost, "/similar?k=0", traceA},
		{"similar-by-trace-exact", http.MethodPost, "/similar?k=0&rerank=3", traceA},
		{"classify", http.MethodPost, "/classify?k=0", traceA},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := doJSON(t, s, c.method, c.target, c.body, http.StatusOK)
			ns, ok := resp["neighbors"].([]any)
			if !ok {
				t.Fatalf("neighbors is %T (null?), want []: %v", resp["neighbors"], resp)
			}
			if len(ns) != 0 {
				t.Fatalf("k=0 returned neighbors: %v", ns)
			}
			if c.name == "classify" {
				if v, ok := resp["votes"].([]any); !ok || len(v) != 0 {
					t.Fatalf("k=0 classify votes = %v (%T)", resp["votes"], resp["votes"])
				}
				if resp["label"].(string) != "" {
					t.Fatalf("k=0 classify labelled: %v", resp["label"])
				}
			}
		})
	}
}

// A k far beyond the corpus is a valid request: every query answers 200
// with the whole live corpus at most, on one shard and on four, and no
// layer sizes anything by k.
func TestServeHugeK(t *testing.T) {
	sh, err := shard.New(shard.Options{Shards: 4, Seed: 7, Engine: engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	const k = "4611686018427387904" // 1 << 62
	for _, s := range []*Server{testServer(), NewSharded(sh, nil, core.Options{})} {
		seedLabeled(t, s)
		for _, c := range []struct {
			method, target, body string
			want                 int
		}{
			{http.MethodGet, "/similar?id=0&approx=1&k=" + k, "", 2},
			{http.MethodGet, "/similar?id=0&approx=1&rerank=0&k=" + k, "", 2},
			{http.MethodGet, "/similar?id=0&k=" + k, "", 2},
			{http.MethodPost, "/similar?k=" + k, traceA, 3},
			{http.MethodPost, "/classify?k=" + k, traceA, 3},
		} {
			resp := doJSON(t, s, c.method, c.target, c.body, http.StatusOK)
			if ns, ok := resp["neighbors"].([]any); !ok || len(ns) != c.want {
				t.Fatalf("%s %s: neighbors %v, want the %d live candidates", c.method, c.target, resp["neighbors"], c.want)
			}
		}
	}
}

// rerank < -1 is rejected as a client error on every endpoint that takes it.
func TestServeRerankValidation(t *testing.T) {
	s := testServer()
	seedLabeled(t, s)
	for _, c := range []struct{ method, target, body string }{
		{http.MethodGet, "/similar?id=0&approx=1&rerank=-2", ""},
		{http.MethodGet, "/similar?id=0&rerank=-5", ""},
		{http.MethodPost, "/similar?rerank=-2", traceA},
		{http.MethodPost, "/classify?rerank=-17", traceA},
	} {
		resp := doJSON(t, s, c.method, c.target, c.body, http.StatusBadRequest)
		if msg := resp["error"].(string); !strings.Contains(msg, "bad rerank") {
			t.Fatalf("%s %s: error %q", c.method, c.target, msg)
		}
	}
	// rerank = -1 (the documented default) stays valid.
	doJSON(t, s, http.MethodGet, "/similar?id=0&approx=1&rerank=-1", "", http.StatusOK)
}

// Classification over a sharded server answers identically to the single
// engine — the HTTP-level face of the parity suite in internal/classify.
func TestServeClassifyShardedParity(t *testing.T) {
	single := testServer()
	sh, err := shard.New(shard.Options{Shards: 4, Seed: 7, Engine: engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	sharded := NewSharded(sh, nil, core.Options{})
	for _, s := range []*Server{single, sharded} {
		seedLabeled(t, s)
	}
	for _, q := range []string{traceA, traceC} {
		want := doJSON(t, single, http.MethodPost, "/classify?k=3&rerank=3", q, http.StatusOK)
		got := doJSON(t, sharded, http.MethodPost, "/classify?k=3&rerank=3", q, http.StatusOK)
		for _, key := range []string{"label", "confidence"} {
			if want[key] != got[key] {
				t.Fatalf("%s diverges: single %v, sharded %v", key, want[key], got[key])
			}
		}
		wn, gn := want["neighbors"].([]any), got["neighbors"].([]any)
		if len(wn) != len(gn) {
			t.Fatalf("neighbor counts diverge: %v vs %v", wn, gn)
		}
		for i := range wn {
			w, g := wn[i].(map[string]any), gn[i].(map[string]any)
			if w["id"] != g["id"] || w["similarity"] != g["similarity"] {
				t.Fatalf("neighbor %d diverges: %v vs %v", i, w, g)
			}
		}
	}
}

// Labels persist beside the data dir and come back after a kill: the HTTP
// face of the registry's crash-recovery contract.
func TestServeLabelsDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, classify.DefaultLabelsFile)
	open := func() (*Server, *store.Store) {
		reg, err := classify.OpenRegistry(path)
		if err != nil {
			t.Fatal(err)
		}
		eng, st, err := store.Open(dir, func() *engine.Engine {
			return engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2})
		}, store.Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return New(eng, st, reg, core.Options{}), st
	}
	s, _ := open()
	seedLabeled(t, s)
	// Kill: neither the store nor the registry is closed.
	s2, st2 := open()
	defer st2.Close()
	resp := doJSON(t, s2, http.MethodGet, "/labels", "", http.StatusOK)
	if n := resp["labeled"].(float64); n != 2 {
		t.Fatalf("recovered labeled = %v", n)
	}
	got := doJSON(t, s2, http.MethodPost, "/classify?k=3&rerank=3", traceA, http.StatusOK)
	if got["label"].(string) != "writer" {
		t.Fatalf("recovered classification = %v", got["label"])
	}
}
