package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"iokast/internal/xrand"
)

func TestPercentileTailCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted input
	}
	for _, tc := range []struct {
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{50, 500, 500, true},
		{90, 900, 100, true},
		{99, 990, 10, true},
		{99.5, 995, 5, false}, // five samples past it: too few to report
		{100, 1000, 0, false},
	} {
		got := percentile(xs, tc.p)
		if got.Value != tc.value || got.Beyond != tc.beyond || got.N != 1000 || got.Supported() != tc.ok {
			t.Errorf("p%v = %+v (supported %v), want value %v beyond %d supported %v",
				tc.p, got, got.Supported(), tc.value, tc.beyond, tc.ok)
		}
	}
	if xs[0] != 1000 {
		t.Fatal("percentile reordered its input")
	}
}

func TestPercentileTiesAreNotBeyond(t *testing.T) {
	// 95 samples of 1 and 5 of 2: p90 is 1, and only the five 2s lie past it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 95; i < 100; i++ {
		xs[i] = 2
	}
	got := percentile(xs, 90)
	if got.Value != 1 || got.Beyond != 5 {
		t.Fatalf("p90 = %+v, want value 1 with 5 beyond", got)
	}
	if got := percentile([]float64{7}, 99); got.Value != 7 || got.Beyond != 0 {
		t.Fatalf("single sample p99 = %+v", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got.Value) || got.N != 0 {
		t.Fatalf("empty sample = %+v, want NaN", got)
	}
}

func TestMixOrderExactShares(t *testing.T) {
	mix := []mixEntry{{opIngest, 2}, {opSimilarID, 3}, {opClassify, 2}, {opDelete, 0.5}, {opStream, 1}}
	ops := mixOrder(mix, 700, xrand.New(1))
	got := map[string]int{}
	for _, op := range ops {
		got[op]++
	}
	want := map[string]int{opIngest: 165, opSimilarID: 247, opClassify: 164, opDelete: 42, opStream: 82}
	if len(ops) != 700 || len(got) != len(want) {
		t.Fatalf("%d ops with counts %v, want 700 with %v", len(ops), got, want)
	}
	for op, n := range want {
		if got[op] != n {
			t.Errorf("%s: %d requests, want %d", op, got[op], n)
		}
	}
	if other := mixOrder(mix, 700, xrand.New(2)); strings.Join(other, ",") == strings.Join(ops, ",") {
		t.Error("the order does not depend on the seed")
	}
}

func span(start, end int) Span {
	return Span{Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimeUnionOfChildren(t *testing.T) {
	parent := span(0, 100)
	for _, tc := range []struct {
		name     string
		children []Span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []Span{span(10, 20), span(30, 50)}, 70},
		// A fan-out: three shards busy over overlapping intervals. Summing
		// them would subtract 90; their union covers only 10..60.
		{"overlapping fan-out", []Span{span(10, 40), span(20, 60), span(15, 35)}, 50},
		{"nested child", []Span{span(10, 60), span(20, 30)}, 50},
		{"touching", []Span{span(10, 20), span(20, 30)}, 80},
		{"clipped to parent", []Span{span(-10, 10), span(90, 130)}, 80},
		{"outside parent", []Span{span(200, 300)}, 100},
		{"covering parent", []Span{span(0, 50), span(40, 100)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.Add(Span{Req: 1, Name: "client", Start: 0, End: 100})
	tr.Add(Span{Req: 1, Parent: root, Name: "handler", Start: 10, End: 70})
	tr.Add(Span{Req: 1, Parent: root, Name: "handler", Start: 50, End: 90})
	other := tr.Add(Span{Req: 2, Name: "client", Start: 0, End: 10})
	tr.Add(Span{Req: 2, Parent: other, Name: "handler", Start: 0, End: 4})
	got := tr.SelfTimes("client")
	if len(got) != 2 || got[0] != 20 || got[1] != 6 {
		t.Fatalf("self times %v, want [20 6]", got)
	}
	if d := tr.Durations("handler"); len(d) != 3 || d[0] != 60 {
		t.Fatalf("durations %v", d)
	}
}

func TestParseStatCPU(t *testing.T) {
	// Command names may hold spaces and parentheses.
	stat := "4242 (iok serve) (x)) S 1 4242 4242 0 -1 4194560 1791 0 0 0 250 37 0 0 20 0 9 0 131654 1 2 3"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 287 * clockTick; got != want {
		t.Fatalf("cpu %v, want %v", got, want)
	}
	for _, bad := range []string{"4242 S 1 2", "1 (a) S 1 2 3", "1 (a) S 1 2 3 4 5 6 7 8 9 10 x 5 6"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tiokserve\nVmPeak:\t  812345 kB\nVmHWM:\t   30104 kB\nVmRSS:\t   29000 kB\nThreads:\t9\n"
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 30104 {
		t.Fatalf("VmHWM = %d, %v; want 30104", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("unit other than kB accepted")
	}
}

func TestSumFamiliesOverLabelSets(t *testing.T) {
	text := `# HELP iok_engine_kernel_evals_total Kernel evaluations performed.
# TYPE iok_engine_kernel_evals_total counter
iok_engine_kernel_evals_total{shard="0"} 100
iok_engine_kernel_evals_total{shard="1"} 23

iok_http_requests_total{endpoint="POST /classify",method="POST",status="200"} 7
iok_http_requests_total{endpoint="weird { label",method="GET",status="200"} 1
iok_store_fsync_seconds_bucket{le="0.001"} 3
iok_store_fsync_seconds_count 5
iok_corpus_traces 512
`
	m, err := parseFamilies(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"iok_engine_kernel_evals_total":  123,
		"iok_http_requests_total":        8,
		"iok_store_fsync_seconds_bucket": 3,
		"iok_store_fsync_seconds_count":  5,
		"iok_corpus_traces":              512,
	}
	if len(m) != len(want) {
		t.Errorf("families %v, want %v", m, want)
	}
	for name, v := range want {
		if m[name] != v {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
	d := counterDelta(map[string]float64{"a": 1}, map[string]float64{"a": 4, "b": 2}, []string{"a", "b", "c"})
	if d["a"] != 3 || d["b"] != 2 || d["c"] != 0 {
		t.Errorf("delta %v", d)
	}
	if got := formatCounts(d); got != "a=3\nb=2\nc=0\n" {
		t.Errorf("formatCounts = %q", got)
	}
}
