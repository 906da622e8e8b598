package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/iogen"
	"iokast/internal/shard"
)

// workloadBatch returns n load-generator trace bodies and the batch body
// that carries them, encoded as the load tools encode it (json.Marshal).
func workloadBatch(t testing.TB, seed uint64, n int) ([]string, []byte) {
	t.Helper()
	g := iogen.NewBodyGen(seed, nil)
	texts := make([]string, n)
	for i := range texts {
		texts[i], _ = g.Next()
	}
	body, err := json.Marshal(batchRequest{Traces: texts})
	if err != nil {
		t.Fatal(err)
	}
	return texts, body
}

// TestDecodeBatch pins which bodies the one-pass decoder takes and what it
// makes of them; every body it declines must be left to encoding/json.
func TestDecodeBatch(t *testing.T) {
	for _, tc := range []struct {
		body string
		want []string // nil: declined
	}{
		{`{"traces": []}`, []string{}},
		{" \t\r\n{ \"traces\" :\n[ ] } \n", []string{}},
		{`{"traces":["a","",  "b c"]}`, []string{"a", "", "b c"}},
		{`{"traces": ["q\"b\\s\/b\bf\fn\nr\rt\t~\u007f"]}`, nil}, // \u escape
		{`{"traces": ["q\"b\\s\/b\bf\fn\nr\rt\t~` + "\x7f" + `"]}`, []string{"q\"b\\s/b\bf\fn\nr\rt\t~\x7f"}},
		{`{"traces": ["é ∑ 😀 ` + "�" + `"]}`, []string{"é ∑ 😀 �"}},
		{`{"Traces": ["x"]}`, nil},
		{`{"traces": ["x"], "traces": ["y"]}`, nil},
		{`{"other": 1, "traces": ["x"]}`, nil},
		{`{"traces": null}`, nil},
		{`null`, nil},
		{`{"traces": [1]}`, nil},
		{`{"traces": ["x", null]}`, nil},
		{`{"traces": ["\u00e9"]}`, nil},
		{"{\"traces\": [\"a\x01b\"]}", nil},
		{"{\"traces\": [\"a\xffb\"]}", nil},
		{"{\"traces\": [\"a\xed\xa0\x80b\"]}", nil}, // UTF-8-encoded surrogate
		{`{"traces": ["a\x"]}`, nil},
		{`{"traces": ["a"]} x`, nil},
		{`{"traces": ["a"]}{}`, nil},
		{`{"traces": ["a",]}`, nil},
		{`{"traces": ["a" "b"]}`, nil},
		{`{"traces": ["a"]`, nil},
		{`{"traces": ["a`, nil},
		{`{"traces": ["a\`, nil},
		{`{"traces"`, nil},
		{`{`, nil},
		{``, nil},
	} {
		got, ok := decodeBatch([]byte(tc.body))
		if ok != (tc.want != nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("decodeBatch(%q) = %q, %v; want %q", tc.body, got, ok, tc.want)
		}
		if ok {
			var req batchRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil || !reflect.DeepEqual(req.Traces, got) {
				t.Errorf("json.Unmarshal(%q) = %q, %v; decodeBatch took it as %q", tc.body, req.Traces, err, got)
			}
		}
	}
}

// TestDecodeBatchWorkload: the bodies the load tools send take the one
// pass, with one allocation per trace plus the slice's growth.
func TestDecodeBatchWorkload(t *testing.T) {
	texts, body := workloadBatch(t, 1, 64)
	got, ok := decodeBatch(body)
	if !ok || !reflect.DeepEqual(got, texts) {
		t.Fatalf("workload batch: ok = %v and %d traces, want the %d sent", ok, len(got), len(texts))
	}
	// 64 strings and the slice's doublings from 1 to 64 (7).
	if allocs := testing.AllocsPerRun(5, func() { decodeBatch(body) }); allocs > 64+7 {
		t.Fatalf("decodeBatch of 64 traces: %.0f allocations, want at most %d", allocs, 64+7)
	}
}

// FuzzDecodeBatch holds the one-pass decoder to encoding/json: on any
// bytes it does not panic, and whatever it accepts, json.Unmarshal accepts
// too and decodes to the same strings (an empty array to an empty slice).
func FuzzDecodeBatch(f *testing.F) {
	_, body := workloadBatch(f, 1, 4)
	f.Add(body)
	for _, seed := range []string{
		`{"traces": []}`,
		`{"Traces": ["x"]}`,
		`{"traces": ["a"], "traces": ["b"]}`,
		`{"traces": null}`,
		`null`,
		`{"traces": ["caf\u00e9"]}`,
		`{"traces": ["café ∑"]}`,
		"{\"traces\": [\"a\x01b\"]}",
		`{"traces": ["a\n\"b\"\\"]} trailing`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := decodeBatch(body)
		if !ok {
			if got != nil {
				t.Fatalf("declined %q but returned %q", body, got)
			}
			return
		}
		var req batchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("decodeBatch accepted %q as %q; json.Unmarshal refuses it: %v", body, got, err)
		}
		if !reflect.DeepEqual(got, req.Traces) {
			t.Fatalf("body %q: decodeBatch %q, json.Unmarshal %q", body, got, req.Traces)
		}
	})
}

// BenchmarkServeTracesBatch times POST /traces/batch through ServeHTTP on a
// 4-shard in-memory corpus at iokserve's defaults, with load-generator
// bodies: batch=4 is the shape of the fsynced ingest loop, batch=64 that of
// a prefill. A fresh corpus is built outside the timer every 4096 traces,
// far below engine.MaxIDs, so the corpus never grows past that.
func BenchmarkServeTracesBatch(b *testing.B) {
	for _, size := range []int{4, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			bodies := make([][]byte, 16)
			total := 0
			for i := range bodies {
				_, bodies[i] = workloadBatch(b, uint64(i+1), size)
				total += len(bodies[i])
			}
			var s *Server
			b.SetBytes(int64(total / len(bodies)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%(4096/size) == 0 {
					b.StopTimer()
					sh, err := shard.New(shard.Options{Shards: 4, Engine: engine.Options{Kernel: &core.Kast{CutWeight: 2}}})
					if err != nil {
						b.Fatal(err)
					}
					s = NewSharded(sh, nil, core.Options{})
					b.StartTimer()
				}
				r := httptest.NewRequest(http.MethodPost, "/traces/batch", bytes.NewReader(bodies[i%len(bodies)]))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, r)
				if w.Code != http.StatusCreated {
					b.Fatalf("batch status %d: %s", w.Code, w.Body)
				}
			}
		})
	}
}
