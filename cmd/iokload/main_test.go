package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/iogen"
	"iokast/internal/load"
	"iokast/internal/serve"
	"iokast/internal/shard"
	"iokast/internal/store"
)

// runLoad drives the shipped run() in-process.
func runLoad(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestDryRunDeterministic is the acceptance-criteria pin at the command
// level: two invocations with the same -seed print byte-identical
// schedule digests, and a different seed diverges.
func TestDryRunDeterministic(t *testing.T) {
	args := []string{"-dry-run", "-seed", "42", "-clients", "3", "-duration", "1s", "-rate", "40", "-prefill", "16"}
	c1, out1, _ := runLoad(args...)
	c2, out2, _ := runLoad(args...)
	if c1 != 0 || c2 != 0 {
		t.Fatalf("dry-run exit codes %d, %d", c1, c2)
	}
	if out1 != out2 {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", out1, out2)
	}
	if !strings.Contains(out1, "digest: sha256:") {
		t.Fatalf("no digest in dry-run output:\n%s", out1)
	}
	c3, out3, _ := runLoad("-dry-run", "-seed", "43", "-clients", "3", "-duration", "1s", "-rate", "40", "-prefill", "16")
	if c3 != 0 {
		t.Fatalf("dry-run exit code %d", c3)
	}
	if out1 == out3 {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestDryRunGammaBursty: the full flag surface for the bursty arrival
// process parses and schedules deterministically.
func TestDryRunGammaBursty(t *testing.T) {
	args := []string{"-dry-run", "-seed", "7", "-clients", "2", "-duration", "1s", "-rate", "50",
		"-arrival", "gamma", "-shape", "0.5", "-periods", "200ms*4,800ms*0.25", "-prefill", "8"}
	c1, out1, _ := runLoad(args...)
	c2, out2, _ := runLoad(args...)
	if c1 != 0 || c2 != 0 {
		t.Fatalf("exit codes %d, %d", c1, c2)
	}
	if out1 != out2 {
		t.Fatal("gamma schedule not deterministic")
	}
}

// TestSpecFileOverride: a -spec file defines the run; explicit flags
// override individual fields, unset flags do not.
func TestSpecFileOverride(t *testing.T) {
	spec := load.Spec{
		Clients:  2,
		Duration: load.Duration(time.Second),
		Rate:     30,
		Arrival:  load.ArrivalSpec{Process: "poisson"},
		Mix:      []load.MixEntry{{Op: load.OpIngest, Weight: 1}},
		Seed:     9,
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	c1, base, _ := runLoad("-dry-run", "-spec", path)
	if c1 != 0 {
		t.Fatalf("spec-file dry-run exit %d", c1)
	}
	cSame, viaFlags, _ := runLoad("-dry-run", "-clients", "2", "-duration", "1s", "-rate", "30",
		"-arrival", "poisson", "-mix", "ingest=1", "-seed", "9", "-prefill", "0")
	if cSame != 0 {
		t.Fatalf("flag dry-run exit %d", cSame)
	}
	if base != viaFlags {
		t.Fatalf("spec file and equivalent flags diverged:\n%s\nvs\n%s", base, viaFlags)
	}
	c2, overridden, _ := runLoad("-dry-run", "-spec", path, "-seed", "10")
	if c2 != 0 {
		t.Fatalf("override dry-run exit %d", c2)
	}
	if base == overridden {
		t.Fatal("-seed override had no effect on a -spec run")
	}
}

// TestUsageErrors: malformed invocations exit 2 with a diagnostic, never
// 0 and never a run.
func TestUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no target":       {"-duration", "1s"},
		"unknown flag":    {"-frobnicate"},
		"bad mix":         {"-dry-run", "-mix", "ingest"},
		"bad arrival":     {"-dry-run", "-arrival", "weibull"},
		"bad periods":     {"-dry-run", "-arrival", "gamma", "-periods", "xyz"},
		"bad slo":         {"-dry-run", "-slo", "p42<1ms", "-target", "http://x"},
		"bad spec path":   {"-dry-run", "-spec", "/nonexistent/spec.json"},
		"positional junk": {"-dry-run", "extra"},
		"missing prefill": {"-dry-run", "-prefill", "0"}, // default mix needs ids
		"bad replay dir":  {"-replay", "/nonexistent", "-target", "http://x"},
		"zero speed":      {"-replay", ".", "-speed", "0", "-target", "http://x"},
	} {
		code, _, errOut := runLoad(args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", name, code, errOut)
		}
		if errOut == "" {
			t.Errorf("%s: no diagnostic on stderr", name)
		}
	}
}

func newServer(t *testing.T, shards int) *serve.Server {
	t.Helper()
	sh, err := shard.New(shard.Options{
		Shards: shards,
		Seed:   7,
		Engine: engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2},
		Store:  store.Options{SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewSharded(sh, nil, core.Options{})
}

// TestLoadSmoke drives the full mixed profile against an in-process
// iokserve — the exact shipped handler, at 1 and 4 shards — for
// 2 seconds and holds the run to the CI contract: exit 0, zero 5xx and
// transport errors, every op exercised, every SLO gate evaluated, and a
// JSON report that round-trips.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("2s timed run per topology")
	}
	for _, tc := range []struct {
		name   string
		server *serve.Server
	}{
		{"single", newServer(t, 1)},
		{"sharded4", newServer(t, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.server)
			defer srv.Close()
			jsonPath := filepath.Join(t.TempDir(), "report.json")

			code, out, errOut := runLoad(
				"-target", srv.URL,
				"-clients", "3", "-rate", "30", "-duration", "2s",
				"-prefill", "32", "-seed", "42",
				"-slo", "*:p99<5s,err=0",
				"-slo", "/classify:p99<5s",
				"-json", jsonPath,
			)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
			}

			raw, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := load.DecodeReport(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			// Round trip: decode -> encode reproduces the artifact
			// byte-for-byte (CI tooling depends on the format).
			var again bytes.Buffer
			if err := rep.WriteJSON(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, again.Bytes()) {
				t.Fatalf("report did not round-trip:\n%s\nvs\n%s", raw, again.Bytes())
			}

			if rep.Requests == 0 {
				t.Fatal("no requests recorded")
			}
			for _, op := range load.Ops {
				ep, ok := rep.Endpoints[op.Endpoint()]
				if !ok || ep.Requests == 0 {
					t.Errorf("endpoint %s saw no traffic", op.Endpoint())
				}
			}
			for name, ep := range rep.Endpoints {
				if ep.Errors != 0 || ep.TransportErrors != 0 {
					t.Errorf("%s: %d errors (%d transport): statuses %v", name, ep.Errors, ep.TransportErrors, ep.Statuses)
				}
				for code := range ep.Statuses {
					if strings.HasPrefix(code, "5") {
						t.Errorf("%s: got status %s", name, code)
					}
				}
			}
			if len(rep.SLO) != 3 { // two gates in the first -slo, one in the second
				t.Fatalf("%d SLO results, want 3: %+v", len(rep.SLO), rep.SLO)
			}
			for _, g := range rep.SLO {
				if !g.Pass {
					t.Errorf("gate %q failed: %s", g.Gate, g.Detail)
				}
			}
			if !strings.Contains(out, "TOTAL") || !strings.Contains(out, "PASS") {
				t.Errorf("human report incomplete:\n%s", out)
			}
		})
	}
}

// TestLoadSmokeGateFailure: an impossible gate turns into exit 1, not a
// silent pass — the property CI relies on.
func TestLoadSmokeGateFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("timed run")
	}
	srv := httptest.NewServer(newServer(t, 1))
	defer srv.Close()
	code, _, errOut := runLoad(
		"-target", srv.URL,
		"-clients", "1", "-rate", "20", "-duration", "500ms",
		"-prefill", "8", "-seed", "1",
		"-slo", "*:p99<1ns",
	)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errOut)
	}
	if !strings.Contains(errOut, "SLO") {
		t.Fatalf("stderr does not mention the gate failure: %q", errOut)
	}
}

// TestReplaySmoke: a recorded corpus replays end-to-end — timed mode
// honours the timeline, and every trace lands as POST /traces.
func TestReplaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timed run")
	}
	dir := t.TempDir()
	const n = 12
	names, err := iogen.WriteCorpusDir(dir, n, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(i) * 50 * time.Millisecond
	}
	if err := load.WriteTimeline(dir, names, offsets); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(newServer(t, 1))
	defer srv.Close()
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	code, out, errOut := runLoad(
		"-target", srv.URL,
		"-replay", dir, "-speed", "2", // 550ms of recorded time in ~275ms
		"-slo", "*:err=0",
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
	ep := rep.Endpoints[load.OpIngest.Endpoint()]
	if ep.Requests != n {
		t.Fatalf("replayed %d requests, want %d", ep.Requests, n)
	}
	if ep.Statuses["201"] != n {
		t.Fatalf("statuses %v, want %d x 201", ep.Statuses, n)
	}
}
