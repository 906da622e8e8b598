package iokast

import (
	"math"
	"strings"
	"testing"
)

const demoTrace = `
open fh=1
write fh=1 bytes=8
write fh=1 bytes=8
read fh=1 bytes=4096
close fh=1
`

func TestParseConvertRoundTrip(t *testing.T) {
	tr, err := ParseTraceString(demoTrace)
	if err != nil {
		t.Fatal(err)
	}
	s := Convert(tr, ConvertOptions{})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseWeightedString(s.Format())
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(s) {
		t.Fatal("weighted string round trip failed")
	}
}

func TestFormatTrace(t *testing.T) {
	tr, _ := ParseTraceString(demoTrace)
	var sb strings.Builder
	if err := FormatTrace(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "write fh=1 bytes=8") {
		t.Fatalf("formatted trace wrong:\n%s", sb.String())
	}
}

func TestParseStraceFacade(t *testing.T) {
	tr, err := ParseStrace(strings.NewReader(`read(3, "", 64) = 64`))
	if err != nil || tr.Len() != 1 {
		t.Fatalf("strace facade: %v %v", tr, err)
	}
}

func TestKernelFacades(t *testing.T) {
	tr, _ := ParseTraceString(demoTrace)
	s := Convert(tr, ConvertOptions{})
	k := NewKast(2)
	if got := CosineNormalized(k).Compare(s, s); math.Abs(got-1) > 1e-12 {
		t.Fatalf("cosine self = %v", got)
	}
	if got := PaperNormalized(k).Compare(s, s); got <= 0 {
		t.Fatalf("paper self = %v", got)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	ds, err := GeneratePaperDataset(42)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 110 {
		t.Fatalf("dataset %d", ds.Len())
	}
	// Subsample for speed: first 3 of each category block.
	var xs []WeightedString
	var labels []string
	for i := 0; i < ds.Len(); i += 10 {
		xs = append(xs, Convert(ds.Traces[i], ConvertOptions{}))
		labels = append(labels, ds.Labels[i])
	}
	sim, clipped, err := PaperSimilarity(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if clipped < 0 || sim.Rows != len(xs) {
		t.Fatalf("similarity shape %d clipped %d", sim.Rows, clipped)
	}
	res, err := KernelPCA(sim, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Rows != len(xs) || res.Coords.Cols != 2 {
		t.Fatal("KPCA shape wrong")
	}
	dg, err := HCluster(sim, SingleLinkage)
	if err != nil {
		t.Fatal(err)
	}
	assign := dg.Cut(3)
	p, err := Purity(assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.8 {
		t.Fatalf("purity %v suspiciously low", p)
	}
	if _, err := AdjustedRandIndex(assign, labels); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSimilarityFacade(t *testing.T) {
	a, _ := ParseTraceString(demoTrace)
	xs := []WeightedString{Convert(a, ConvertOptions{}), Convert(a, ConvertOptions{IgnoreBytes: true})}
	sim, _, err := CosineSimilarity(&BlendedKernel{P: 3}, xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sim.At(0, 0)-1) > 1e-9 {
		t.Fatalf("diag %v", sim.At(0, 0))
	}
}

func TestGenerateTrace(t *testing.T) {
	for _, cat := range []string{"A", "B", "C", "D"} {
		tr, err := GenerateTrace(cat, 7)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Label != cat || tr.Len() == 0 {
			t.Fatalf("category %s: %+v", cat, tr.Label)
		}
	}
	if _, err := GenerateTrace("Z", 1); err == nil {
		t.Fatal("unknown category accepted")
	}
}

func TestGramFacade(t *testing.T) {
	tr, _ := ParseTraceString(demoTrace)
	s := Convert(tr, ConvertOptions{})
	g := Gram(NewKast(2), []WeightedString{s, s})
	if g.Rows != 2 || g.At(0, 1) != g.At(1, 0) {
		t.Fatal("gram facade wrong")
	}
}

func TestEngineFacade(t *testing.T) {
	ds, err := GeneratePaperDataset(3)
	if err != nil {
		t.Fatal(err)
	}
	xs := ConvertAll(ds.Traces[:10], ConvertOptions{})

	e := NewEngine(EngineOptions{Kernel: NewKast(2)})
	for _, x := range xs {
		e.Add(x)
	}

	// The incrementally built normalized matrix must match the batch
	// PaperSimilarity pipeline over the same strings.
	got, _, gotClipped, err := e.NormalizedGram()
	if err != nil {
		t.Fatal(err)
	}
	want, wantClipped, err := PaperSimilarity(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("engine normalized gram differs from PaperSimilarity by %g", d)
	}
	if gotClipped != wantClipped {
		t.Fatalf("clipped: engine %d, batch %d", gotClipped, wantClipped)
	}

	var ns []Neighbor
	if ns, err = e.Similar(0, 3); err != nil || len(ns) != 3 {
		t.Fatalf("Similar: %v, %v", ns, err)
	}
}

func TestOpenEngineFacade(t *testing.T) {
	ds, err := GeneratePaperDataset(5)
	if err != nil {
		t.Fatal(err)
	}
	xs := ConvertAll(ds.Traces[:8], ConvertOptions{})
	dir := t.TempDir()

	e, st, err := OpenEngine(dir, EngineOptions{Kernel: NewKast(2)}, StoreOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddBatch(xs[:5]); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[5:] {
		e.Add(x)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the recovered engine must serve the identical Gram matrix.
	e2, st2, err := OpenEngine(dir, EngineOptions{Kernel: NewKast(2)}, StoreOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	g1, _ := e.Gram()
	g2, ids := e2.Gram()
	if len(ids) != len(xs) {
		t.Fatalf("recovered %d ids, want %d", len(ids), len(xs))
	}
	if d := g1.MaxAbsDiff(g2); d != 0 {
		t.Fatalf("recovered Gram differs by %g", d)
	}
	var stats StoreStats = st2.Stats()
	if stats.Seq != uint64(len(xs)) {
		t.Fatalf("recovered seq %d, want %d", stats.Seq, len(xs))
	}
}

// TestOpenEngineRefusesNonKast: the corpus engine runs Kast only, and
// OpenEngine, which returns an error, refuses another kernel with one that
// names it instead of panicking in the engine constructor.
func TestOpenEngineRefusesNonKast(t *testing.T) {
	blended := &BlendedKernel{P: 5}
	if _, _, err := OpenEngine(t.TempDir(), EngineOptions{Kernel: blended}, StoreOptions{}); err == nil || !strings.Contains(err.Error(), blended.Name()) {
		t.Errorf("OpenEngine(blended) = %v, want an error naming the kernel", err)
	}
}
