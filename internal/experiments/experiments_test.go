package experiments

import (
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedPipeline builds the default pipeline once for all tests.
var (
	pipeOnce sync.Once
	pipe     *Pipeline
	pipeErr  error
)

func testPipeline(t *testing.T) *Pipeline {
	t.Helper()
	pipeOnce.Do(func() {
		pipe, pipeErr = NewPipeline(DefaultSeed)
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe
}

func TestPipelineShape(t *testing.T) {
	p := testPipeline(t)
	if p.Dataset.Len() != 110 {
		t.Fatalf("dataset size %d", p.Dataset.Len())
	}
	if len(p.StringsBytes) != 110 || len(p.StringsNoBytes) != 110 {
		t.Fatal("string variants missing")
	}
	for i, s := range p.StringsBytes {
		if err := s.Validate(); err != nil {
			t.Fatalf("string %d: %v", i, err)
		}
	}
	if len(p.Strings(true)) != 110 || len(p.Strings(false)) != 110 {
		t.Fatal("Strings accessor wrong")
	}
}

func TestE1WorkedExample(t *testing.T) {
	r := RunE1()
	if !r.Pass {
		t.Fatalf("E1 failed:\n%s", r.Render())
	}
}

func TestE2KPCASeparatesPaperGroups(t *testing.T) {
	r, err := RunE2(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("E2 failed:\n%s", r.Render())
	}
	if !strings.Contains(r.Detail, "PC1") {
		t.Fatal("E2 detail lacks the scatter plot")
	}
}

func TestE3ClusteringMatchesFig7(t *testing.T) {
	r, err := RunE3(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("E3 failed:\n%s", r.Render())
	}
}

func TestE4BlendedKPCA(t *testing.T) {
	r, err := RunE4(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("E4 failed:\n%s", r.Render())
	}
}

func TestE5BlendedClustering(t *testing.T) {
	r, err := RunE5(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("E5 failed:\n%s", r.Render())
	}
}

func TestE6NoByteSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	r, err := RunE6(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("E6 failed:\n%s", r.Render())
	}
}

// TestE7CostClaim checks the count the §4.2 cost claim rests on: "the
// smaller the cut weight the most expensive the computation became",
// because a smaller cut leaves more shared substrings viable, and each
// viable one is work for the kernel. The count follows the naive
// reference's definition (NaiveKast, ViaMaxOccurrence): a substring, keyed
// by its literal sequence, shared by two strings and with an occurrence of
// weight at least the cut in each. Summed over every pair of the 110-trace
// dataset, it must be larger at cut 2 than at cut 1024. It repeats exactly
// on any host; RunE7 and BenchmarkE7CutWeightCost time the same claim.
func TestE7CostClaim(t *testing.T) {
	xs := testPipeline(t).Strings(true)
	type substring struct{ id, heaviest int }
	ids := map[string]int{}
	subs := make([][]substring, len(xs))
	for i, x := range xs {
		heaviest := map[int]int{}
		for start := range x {
			var key strings.Builder
			weight := 0
			for end := start; end < len(x); end++ {
				if end > start {
					key.WriteString("\x1f")
				}
				key.WriteString(x[end].Literal)
				weight += x[end].Weight
				id, ok := ids[key.String()]
				if !ok {
					id = len(ids)
					ids[key.String()] = id
				}
				heaviest[id] = max(heaviest[id], weight)
			}
		}
		for id, w := range heaviest {
			subs[i] = append(subs[i], substring{id, w})
		}
		sort.Slice(subs[i], func(a, b int) bool { return subs[i][a].id < subs[i][b].id })
	}
	var low, high int // viable at cut 2 and at cut 1024
	for i := range subs {
		for j := i; j < len(subs); j++ {
			a, b := subs[i], subs[j]
			for len(a) > 0 && len(b) > 0 {
				switch {
				case a[0].id < b[0].id:
					a = a[1:]
				case a[0].id > b[0].id:
					b = b[1:]
				default:
					w := min(a[0].heaviest, b[0].heaviest)
					if w >= 2 {
						low++
					}
					if w >= 1024 {
						high++
					}
					a, b = a[1:], b[1:]
				}
			}
		}
	}
	t.Logf("viable shared substrings over all pairs: %d at cut 2, %d at cut 1024", low, high)
	if low <= high {
		t.Fatalf("cut 2 leaves %d viable shared substrings, cut 1024 %d: want more at the smaller cut", low, high)
	}
}

func TestE8KSpectrumFails(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := RunE8(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("E8 failed:\n%s", r.Render())
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	reports, err := RunAblations(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Pass {
			t.Errorf("%s failed:\n%s", r.ID, r.Render())
		}
	}
}

func TestReportRender(t *testing.T) {
	r := &Report{ID: "X", Title: "t", Pass: true, Summary: "s", Detail: "d"}
	out := r.Render()
	for _, want := range []string{"X", "MATCH", "s", "d"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render %q lacks %q", out, want)
		}
	}
	r.Pass = false
	if !strings.Contains(r.Render(), "DIFFER") {
		t.Fatal("fail status missing")
	}
}

func TestStabilityAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// The headline result must not depend on the lucky seed: E3 has to
	// reproduce on other seeds too.
	for _, seed := range []uint64{1, 7} {
		p, err := NewPipeline(seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunE3(p)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Pass {
			t.Errorf("seed %d: E3 failed:\n%s", seed, r.Render())
		}
	}
}

func TestX1ExtendedCategories(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := RunX1(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("X1 failed:\n%s", r.Render())
	}
}
