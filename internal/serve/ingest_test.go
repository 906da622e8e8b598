package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/shard"
	"iokast/internal/stream"
	"iokast/internal/trace"
)

// eventsFor converts canonical trace text into the NDJSON op-event body
// /ingest accepts, optionally tagged with a session name and end marker.
func eventsFor(t *testing.T, text, session string, end bool) string {
	t.Helper()
	tr, err := trace.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, op := range tr.Ops {
		ev := stream.Event{Session: session, Op: op.Name, Handle: op.Handle, Bytes: op.Bytes, Addr: op.Addr, Path: op.Path}
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if end {
		fmt.Fprintf(&b, `{"session":%q,"end":true}`+"\n", session)
	}
	return b.String()
}

// doIngest posts an NDJSON body to /ingest and decodes the NDJSON
// response lines.
func doIngest(t *testing.T, h http.Handler, target, body string) (int, []map[string]any) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	// One decoder handles both shapes: compact NDJSON result lines and the
	// indented JSON object of an HTTP error.
	dec := json.NewDecoder(w.Body)
	var lines []map[string]any
	for dec.More() {
		m := map[string]any{}
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("POST %s: bad response JSON: %v", target, err)
		}
		lines = append(lines, m)
	}
	return w.Code, lines
}

// TestServeIngestStreamsWindows drives a named session through /ingest:
// window classifications stream back as the events arrive, and the end
// marker yields the final whole-trace verdict.
func TestServeIngestStreamsWindows(t *testing.T) {
	s := testServer()
	seedLabeled(t, s)
	s.ConfigureStream(stream.Config{Window: 4, Stride: 2})

	body := eventsFor(t, traceA, "job-42", false) +
		eventsFor(t, traceA, "job-42", true)
	code, lines := doIngest(t, s, "/ingest?k=3&rerank=3", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, lines)
	}
	if len(lines) < 3 {
		t.Fatalf("expected interim windows plus a final result, got %v", lines)
	}
	final := lines[len(lines)-1]
	if final["final"] != true || final["session"] != "job-42" {
		t.Fatalf("last line is not the final verdict: %v", final)
	}
	if final["label"] != "writer" {
		t.Fatalf("final label = %v", final["label"])
	}
	if int(final["ops"].(float64)) != 10 {
		t.Fatalf("final ops = %v", final["ops"])
	}
	for _, ln := range lines[:len(lines)-1] {
		if ln["final"] == true {
			t.Fatalf("interim line marked final: %v", ln)
		}
		if ln["label"] != "writer" {
			t.Fatalf("interim window label = %v", ln["label"])
		}
	}
	// The ended session released its registry slot.
	if resp := doJSON(t, s, http.MethodGet, "/healthz", "", http.StatusOK); resp["stream_sessions"].(float64) != 0 {
		t.Fatalf("healthz sessions = %v", resp["stream_sessions"])
	}
}

// TestServeIngestMatchesBatchClassify is the acceptance gate: streaming a
// trace event-by-event and letting EOF finalise the anonymous session
// yields the same label — and at full rerank bit-identical confidence —
// as POSTing the assembled trace to /classify, at shard counts 1 and 4.
func TestServeIngestMatchesBatchClassify(t *testing.T) {
	servers := map[string]*Server{"shards-1": testServer()}
	sh, err := shard.New(shard.Options{Shards: 4, Seed: 7, Engine: engine.Options{Kernel: &core.Kast{CutWeight: 2}, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	servers["shards-4"] = NewSharded(sh, nil, core.Options{})

	for name, s := range servers {
		t.Run(name, func(t *testing.T) {
			seedLabeled(t, s)
			s.ConfigureStream(stream.Config{Window: 4, Stride: 2})
			for _, q := range []string{traceA, traceC} {
				code, lines := doIngest(t, s, "/ingest?k=3&rerank=64", eventsFor(t, q, "", false))
				if code != http.StatusOK || len(lines) == 0 {
					t.Fatalf("ingest status %d, lines %v", code, lines)
				}
				final := lines[len(lines)-1]
				if final["final"] != true {
					t.Fatalf("no final verdict: %v", lines)
				}
				batch := doJSON(t, s, http.MethodPost, "/classify?k=3&rerank=64", q, http.StatusOK)
				if final["label"] != batch["label"] {
					t.Fatalf("streamed label %v, batch label %v", final["label"], batch["label"])
				}
				sc, bc := final["confidence"].(float64), batch["confidence"].(float64)
				if math.Float64bits(sc) != math.Float64bits(bc) {
					t.Fatalf("confidence not bit-identical: streamed %v, batch %v", sc, bc)
				}
			}
		})
	}
}

// TestServeIngestRawLines streams strace capture lines — decorations,
// durations, and a split unfinished/resumed pair — through /ingest.
func TestServeIngestRawLines(t *testing.T) {
	s := testServer()
	seedLabeled(t, s)
	s.ConfigureStream(stream.Config{Window: 4, Stride: 2})
	lines := []string{
		`{"line":"open(\"a.dat\", O_WRONLY) = 3"}`,
		`{"line":"12:34:56.789012 write(3, \"x\", 1024) = 1024"}`,
		`{"line":"write(3, \"x\", 1024) = 1024 <0.000042>"}`,
		`{"line":"write(3,  <unfinished ...>"}`,
		`{"line":"<... write resumed> \"x\", 1024) = 1024"}`,
		`{"line":"close(3) = 0"}`,
	}
	code, out := doIngest(t, s, "/ingest?k=3", strings.Join(lines, "\n")+"\n")
	if code != http.StatusOK || len(out) == 0 {
		t.Fatalf("status %d, lines %v", code, out)
	}
	final := out[len(out)-1]
	if final["final"] != true || final["label"] != "writer" {
		t.Fatalf("final = %v", final)
	}
	if int(final["ops"].(float64)) != 5 {
		t.Fatalf("assembled ops = %v (unfinished/resumed not paired?)", final["ops"])
	}
}

func TestServeIngestErrors(t *testing.T) {
	s := testServer()
	seedLabeled(t, s)

	// Wrong method and bad params are plain HTTP errors.
	doJSON(t, s, http.MethodGet, "/ingest", "", http.StatusMethodNotAllowed)
	code, lines := doIngest(t, s, "/ingest?k=zap", `{"op":"read","handle":1}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad k: status %d %v", code, lines)
	}

	// A malformed event before any output is a clean 400 with a JSON error.
	for _, bad := range []string{
		`not json`,
		`{}`,
		`{"op":"read","handle":1,"line":"x"}`,
		`{"op":"read","handle":-1}`,
	} {
		code, lines := doIngest(t, s, "/ingest", bad)
		if code != http.StatusBadRequest || len(lines) != 1 || lines[0]["error"] == nil {
			t.Fatalf("event %q: status %d, lines %v", bad, code, lines)
		}
	}

	// Session limit: one slot, two named sessions in one request -> 503.
	s.ConfigureStream(stream.Config{MaxSessions: 1})
	code, lines = doIngest(t, s, "/ingest",
		`{"session":"a","op":"read","handle":1}`+"\n"+`{"session":"b","op":"read","handle":1}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("session limit: status %d %v", code, lines)
	}

	// Per-session op cap: exceeding MaxOps is 413 and drops the session.
	s.ConfigureStream(stream.Config{Window: 4, Stride: 1 << 30, MaxOps: 2})
	var b strings.Builder
	for i := 0; i < 3; i++ {
		b.WriteString(`{"session":"big","op":"read","handle":1}` + "\n")
	}
	code, lines = doIngest(t, s, "/ingest", b.String())
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("op cap: status %d %v", code, lines)
	}
	if resp := doJSON(t, s, http.MethodGet, "/healthz", "", http.StatusOK); resp["stream_sessions"].(float64) != 0 {
		t.Fatalf("overfull session not dropped: %v", resp["stream_sessions"])
	}
}

// TestServeIngestSessionLifecycle covers named sessions spanning requests,
// the healthz session gauge, and idle eviction through the stream
// registry's background sweeper (healthz itself is read-only).
func TestServeIngestSessionLifecycle(t *testing.T) {
	s := testServer()
	seedLabeled(t, s)
	s.ConfigureStream(stream.Config{Window: 4, Stride: 2})

	// A named session left open stays registered after the request ends...
	code, _ := doIngest(t, s, "/ingest", eventsFor(t, traceA, "span", false))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp := doJSON(t, s, http.MethodGet, "/healthz", "", http.StatusOK); resp["stream_sessions"].(float64) != 1 {
		t.Fatalf("open session not visible in healthz: %v", resp["stream_sessions"])
	}
	// ...accumulates across a second connection, and ends on demand.
	code, lines := doIngest(t, s, "/ingest", eventsFor(t, traceA, "span", true))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	final := lines[len(lines)-1]
	if final["final"] != true || int(final["ops"].(float64)) != 10 {
		t.Fatalf("cross-request session final = %v", final)
	}

	// Idle eviction: with a tiny TTL the registry's background sweeper
	// collects an abandoned session on its own — no probe traffic involved.
	s.ConfigureStream(stream.Config{Window: 4, Stride: 2, IdleTTL: time.Nanosecond, SweepEvery: time.Millisecond})
	if code, _ := doIngest(t, s, "/ingest", eventsFor(t, traceA, "ghost", false)); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := doJSON(t, s, http.MethodGet, "/healthz", "", http.StatusOK)
		if resp["stream_sessions"].(float64) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle session survived the sweep: %v", resp["stream_sessions"])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeIngestBuffer bounds what the event scanner allocates: a
// one-event request allocates well under the 64 KiB a fixed first buffer
// would take, while an event line of hundreds of KiB still reads whole and
// one over maxIngestLine is refused as before.
func TestServeIngestBuffer(t *testing.T) {
	s := testServer()
	seedLabeled(t, s)
	event := `{"op":"write","handle":1,"bytes":4096}` + "\n"
	if code, lines := doIngest(t, s, "/ingest", event); code != http.StatusOK || len(lines) != 1 {
		t.Fatalf("one event: status %d, lines %v", code, lines)
	}
	var least uint64 = math.MaxUint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(event))
		s.ServeHTTP(httptest.NewRecorder(), r)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("one-event /ingest request allocated %d bytes", least)
	if least >= 64<<10 {
		t.Fatalf("one-event /ingest request allocated %d bytes, want under 64 KiB", least)
	}

	long := func(pathLen int) string {
		return `{"op":"open","handle":1,"path":"` + strings.Repeat("p", pathLen) + `"}` + "\n" + event
	}
	if code, lines := doIngest(t, s, "/ingest", long(300<<10)); code != http.StatusOK || len(lines) != 1 {
		t.Fatalf("300 KiB event: status %d, lines %v", code, lines)
	}
	code, lines := doIngest(t, s, "/ingest", long(maxIngestLine))
	if code != http.StatusBadRequest || len(lines) != 1 || lines[0]["error"] != "read events: bufio.Scanner: token too long" {
		t.Fatalf("event over maxIngestLine: status %d, lines %v", code, lines)
	}
}
