package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/load"
	"iokast/internal/obs"
	"iokast/internal/serve"
	"iokast/internal/shard"
	"iokast/internal/store"
	"iokast/internal/stream"
)

// newObsServer builds a fully instrumented durable server the way
// cmd/iokserve wires one: every layer reporting into the one registry,
// telemetry middleware on top.
func newObsServer(t *testing.T, reg *obs.Registry, shards int) *serve.Server {
	t.Helper()
	sh, err := shard.Open(t.TempDir(), shard.Options{
		Shards: shards,
		Seed:   7,
		Engine: engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2},
		Store:  store.Options{SnapshotEvery: -1, NoSync: true},
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.NewSharded(sh, nil, core.Options{})
	s.ConfigureStream(stream.Config{Metrics: stream.NewMetrics(reg)})
	s.ConfigureTelemetry(serve.Telemetry{Registry: reg})
	return s
}

// TestMetricsParity is the server-side ground-truth check: a -scrape-
// metrics load run's request-counter deltas must equal the client's own
// per-endpoint attempt counts, at 1 and 4 shards, and the full
// exposition must parse with every layer's families present, labelled
// per shard at every shard count.
func TestMetricsParity(t *testing.T) {
	if testing.Short() {
		t.Skip("timed run per topology")
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"single", 1},
		{"sharded4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			server := newObsServer(t, reg, tc.shards)
			defer server.Close()
			srv := httptest.NewServer(server)
			defer srv.Close()
			jsonPath := filepath.Join(t.TempDir(), "report.json")

			code, out, errOut := runLoad(
				"-target", srv.URL,
				"-clients", "2", "-rate", "30", "-duration", "1500ms",
				"-prefill", "16", "-seed", "7",
				"-scrape-metrics",
				"-json", jsonPath,
			)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
			}
			f, err := os.Open(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rep, err := load.DecodeReport(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.ServerMetrics) == 0 {
				t.Fatal("report carries no server-metric deltas")
			}

			// Parity: for every endpoint the client drove, the server's
			// request-counter delta (summed over statuses) must equal the
			// client's attempt count. A mismatch means the harness dropped
			// or double-counted work, or the middleware missed requests.
			for ep, er := range rep.Endpoints {
				if er.TransportErrors != 0 {
					t.Fatalf("%s: %d transport errors break the parity premise", ep, er.TransportErrors)
				}
				method, path, ok := strings.Cut(ep, " ")
				if !ok {
					t.Fatalf("unparseable client endpoint label %q", ep)
				}
				prefix := fmt.Sprintf("iok_http_requests_total{endpoint=%q,method=%q,status=", path, method)
				var served float64
				for key, v := range rep.ServerMetrics {
					if strings.HasPrefix(key, prefix) {
						served += v
					}
				}
				if int64(served) != er.Requests {
					t.Errorf("%s: server counted %d requests, client sent %d", ep, int64(served), er.Requests)
				}
			}

			// The raw exposition parses strictly and covers every layer.
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			samples, err := load.ParseMetrics(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for i := 0; i < tc.shards; i++ {
				want = append(want,
					fmt.Sprintf(`iok_shard_traces{shard="%d"}`, i),
					fmt.Sprintf(`iok_engine_adds_total{shard="%d"}`, i),
					fmt.Sprintf(`iok_sketch_searches_total{shard="%d"}`, i),
					fmt.Sprintf(`iok_store_wal_appends_total{shard="%d"}`, i),
					fmt.Sprintf(`iok_store_fsync_seconds_count{shard="%d"}`, i),
					fmt.Sprintf(`iok_shard_fanout_seconds_count{shard="%d"}`, i),
				)
			}
			want = append(want,
				"iok_stream_sessions_total",
				"iok_stream_window_ticks_total",
				"iok_corpus_traces",
				"iok_interner_size",
				"iok_http_inflight_requests",
			)
			for _, key := range want {
				if _, ok := samples[key]; !ok {
					t.Errorf("exposition missing %s", key)
				}
			}

			// The corpus gauge sampled real state: prefill alone put 16
			// traces in, so zero means the gauge func is not wired.
			if samples["iok_corpus_traces"] <= 0 {
				t.Errorf("iok_corpus_traces = %v, want > 0", samples["iok_corpus_traces"])
			}
		})
	}
}
