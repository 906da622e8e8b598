package engine

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"iokast/internal/core"
	"iokast/internal/iogen"
	"iokast/internal/kernel"
	"iokast/internal/linalg"
	"iokast/internal/obs"
	"iokast/internal/token"
	"iokast/internal/xrand"
)

// bruteSimilar is the reference answer for the by-id query of ids[qi]:
// cosine scores read off g, a from-scratch kernel.Gram over the live
// strings, the query itself excluded, in SortNeighbors order.
func bruteSimilar(g *linalg.Matrix, ids []int, qi, topk int) []Neighbor {
	var out []Neighbor
	for j, id := range ids {
		if j == qi {
			continue
		}
		v := g.At(qi, j)
		if d := g.At(qi, qi) * g.At(j, j); d > 0 {
			v /= math.Sqrt(d)
		} else {
			v = 0
		}
		out = append(out, Neighbor{ID: id, Similarity: v})
	}
	SortNeighbors(out)
	if topk >= 0 && topk < len(out) {
		out = out[:topk]
	}
	return out
}

func assertSameNeighbors(t *testing.T, ctx string, want, got []Neighbor) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d neighbors, want %d\n got %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i].ID != got[i].ID || math.Float64bits(want[i].Similarity) != math.Float64bits(got[i].Similarity) {
			t.Fatalf("%s: neighbor %d = {%d %x}, want {%d %x}", ctx, i,
				got[i].ID, math.Float64bits(got[i].Similarity), want[i].ID, math.Float64bits(want[i].Similarity))
		}
	}
}

// assertByIDMatchesBrute checks Similar and full-rerank SimilarApprox on
// every live id against the brute-force Gram.
func assertByIDMatchesBrute(t *testing.T, ctx string, e *Engine) {
	t.Helper()
	xs, ids := e.Strings()
	g := kernel.Gram(e.Kernel(), xs)
	for qi, id := range ids {
		for _, k := range []int{3, -1} {
			want := bruteSimilar(g, ids, qi, k)
			got, err := e.Similar(id, k)
			if err != nil {
				t.Fatal(err)
			}
			assertSameNeighbors(t, fmt.Sprintf("%s: Similar(%d, %d)", ctx, id, k), want, got)
			got, err = e.SimilarApprox(id, k, e.Len()-1)
			if err != nil {
				t.Fatal(err)
			}
			assertSameNeighbors(t, fmt.Sprintf("%s: SimilarApprox(%d, %d, full)", ctx, id, k), want, got)
		}
	}
}

// spreadCorpus samples n strings across all four generator categories, so
// neighbour lists mix near-duplicates and strangers.
func spreadCorpus(t *testing.T, n int, seed uint64) []token.String {
	all := corpus(t, 110, seed)
	xs := make([]token.String, n)
	for i := range xs {
		xs[i] = all[i*len(all)/n]
	}
	return xs
}

// heavyCorpus returns n strings of 9 tokens over three literals, with
// weights drawn from [2^40, 2^40+2^20]. At such weights Kast is not
// symmetric in floating point: Compare(a, b) and Compare(b, a) differ in
// the last bits for many pairs.
func heavyCorpus(n int) []token.String {
	r := xrand.New(40)
	xs := make([]token.String, n)
	for i := range xs {
		x := make(token.String, 9)
		for j := range x {
			x[j] = token.Token{Literal: string(rune('p' + r.Intn(3))), Weight: r.IntRange(1<<40, 1<<40+1<<20)}
		}
		xs[i] = x
	}
	return xs
}

// asymmetricPairs counts the pairs of xs whose kernel value depends on the
// argument order.
func asymmetricPairs(k *core.Kast, xs []token.String) int {
	n := 0
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if math.Float64bits(k.Compare(xs[i], xs[j])) != math.Float64bits(k.Compare(xs[j], xs[i])) {
				n++
			}
		}
	}
	return n
}

// TestByIDMatchesBruteForceGram: by-id answers are computed on demand, so
// they must equal the cosine over a from-scratch kernel.Gram bit for bit
// after every kind of mutation and after a snapshot restore. The heavy
// corpus is not symmetric in floating point, which pins the argument order
// of on-demand pairs to kernel.Gram's (lower id first).
func TestByIDMatchesBruteForceGram(t *testing.T) {
	spread, heavy := spreadCorpus(t, 14, 21), heavyCorpus(14)
	if asymmetricPairs(&core.Kast{CutWeight: 2}, heavy) == 0 {
		t.Fatal("heavy corpus is symmetric in floating point: it cannot pin the argument order")
	}
	for _, c := range []struct {
		name string
		kern *core.Kast
		xs   []token.String
	}{
		{"", &core.Kast{CutWeight: 2}, spread},
		{"", &core.Kast{CutWeight: 4, Viability: core.ViaTotalWeight}, spread},
		{"heavy-", &core.Kast{CutWeight: 2}, heavy},
	} {
		kern, xs := c.kern, c.xs
		t.Run(c.name+kern.Name(), func(t *testing.T) {
			opt := Options{Kernel: kern, SketchDim: 32, SketchSeed: 3}
			e := New(opt)
			if _, err := e.AddBatch(xs[:8]); err != nil {
				t.Fatal(err)
			}
			assertByIDMatchesBrute(t, "AddBatch", e)
			for _, x := range xs[8:11] {
				e.Add(x)
			}
			assertByIDMatchesBrute(t, "Add", e)
			for _, id := range []int{0, 5, 9} {
				if err := e.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.AddBatch(xs[11:]); err != nil {
				t.Fatal(err)
			}
			assertByIDMatchesBrute(t, "Remove", e)

			var buf bytes.Buffer
			if _, err := e.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r := New(opt)
			if err := r.Restore(&buf); err != nil {
				t.Fatal(err)
			}
			assertByIDMatchesBrute(t, "restore", r)
		})
	}
}

// TestRestoreV3Snapshot pins the version-3 reader with a snapshot written
// before self-similarities replaced the Gram triangle: six Kast entries
// with id 2 removed, sketch dim 16 and seed 5, and a signature block of 2
// LSH bands of 4 rows, which restore discards. The restore keeps only the
// triangle's diagonal, so it must serve what an engine built live from the
// same history serves.
func TestRestoreV3Snapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot-v3.bin")
	if err != nil {
		t.Fatal(err)
	}
	if v := data[len(snapshotMagic)]; v != snapshotVersionV3 {
		t.Fatalf("fixture is snapshot version %d, want %d", v, snapshotVersionV3)
	}
	opt := Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: 16, SketchSeed: 5}
	r := New(opt)
	if err := r.Restore(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	live := New(opt)
	for _, x := range corpus(t, 6, 3) {
		live.Add(x)
	}
	if err := live.Remove(2); err != nil {
		t.Fatal(err)
	}
	if r.Seq() != live.Seq() || r.Len() != live.Len() || r.NextID() != live.NextID() {
		t.Fatalf("restored seq/len/next = %d/%d/%d, want %d/%d/%d",
			r.Seq(), r.Len(), r.NextID(), live.Seq(), live.Len(), live.NextID())
	}
	sketchStatesEqual(t, live, r)
	for _, id := range []int{0, 1, 3, 4, 5} {
		if got, want := r.entries[id].self, live.entries[id].self; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("restored k(x%d, x%d) = %v, want %v", id, id, got, want)
		}
		want, err := live.Similar(id, -1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Similar(id, -1)
		if err != nil {
			t.Fatal(err)
		}
		assertSameNeighbors(t, fmt.Sprintf("Similar(%d)", id), want, got)
	}
	assertByIDMatchesBrute(t, "v3 restore", r)
}

// headerEnd returns where a snapshot's header ends and its CRC begins: 4
// bytes before the first binary block, whose "IOKVEC1\n" magic canonical
// token text cannot contain.
func headerEnd(t *testing.T, snap []byte) int {
	t.Helper()
	i := bytes.Index(snap, []byte("IOKVEC1\n"))
	if i < 4 {
		t.Fatal("snapshot has no vector block")
	}
	return i - 4
}

// TestRestoreV4BandedSnapshot pins the snapshot every data dir written at
// iokserve's defaults held while the sketch index was LSH-banded: version
// 4 from the default engine (Kast cut 2, sketch dim 256, seed 0) with
// 16 bands of 8 rows, 12 workload traces inserted in one batch and id 5
// removed, so the header ends in ann flag 1, bands and rows, and a
// signature block follows the vectors. Restore checks that block and
// discards it, into a default engine and into a sketch-disabled one, and
// must then serve what an engine built live from the same history serves.
// The restored engine snapshots to the live engine's bytes: the fixture's
// header with ann flag 0 in place of the banding, and no signature block.
// That snapshot restores to the same state.
func TestRestoreV4BandedSnapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot-v4-banded.bin")
	if err != nil {
		t.Fatal(err)
	}
	if v := data[len(snapshotMagic)]; v != snapshotVersion {
		t.Fatalf("fixture is snapshot version %d, want %d", v, snapshotVersion)
	}
	end := headerEnd(t, data)
	if banding := data[end-3 : end]; !bytes.Equal(banding, []byte{1, 16, 8}) {
		t.Fatalf("fixture header ends in %v, want ann flag 1, 16 bands, 8 rows", banding)
	}
	for _, c := range []struct {
		name string
		opt  Options
	}{{"default", Options{}}, {"sketch-disabled", Options{SketchDim: -1}}} {
		t.Run(c.name, func(t *testing.T) {
			live := New(c.opt)
			if _, err := live.AddBatch(workloadCorpus(t, 12)); err != nil {
				t.Fatal(err)
			}
			if err := live.Remove(5); err != nil {
				t.Fatal(err)
			}
			r := New(c.opt)
			if err := r.Restore(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			assertRestoredLike(t, "fixture", live, r)

			var snap, liveSnap bytes.Buffer
			if _, err := r.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			if _, err := live.Snapshot(&liveSnap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.Bytes(), liveSnap.Bytes()) {
				t.Fatal("the restored engine's snapshot differs from the live engine's")
			}
			if bytes.Contains(snap.Bytes(), []byte("IOKSIG1\n")) {
				t.Fatal("snapshot of the restored engine carries a signature block")
			}
			if c.opt.SketchDim >= 0 {
				want := append(data[:end-3:end-3], 0)
				if got := snap.Bytes()[:headerEnd(t, snap.Bytes())]; !bytes.Equal(got, want) {
					t.Fatalf("snapshot header ends in %v, want the fixture's header with ann flag 0 (%v)", got[len(got)-4:], want[len(want)-4:])
				}
			}
			again := New(c.opt)
			if err := again.Restore(&snap); err != nil {
				t.Fatal(err)
			}
			assertRestoredLike(t, "second restore", live, again)
		})
	}
}

// assertRestoredLike asserts that r holds what live holds: seq, length
// and next id, every sketch vector and every k(x, x) bit for bit, and the
// same by-id answers, exact and approximate.
func assertRestoredLike(t *testing.T, ctx string, live, r *Engine) {
	t.Helper()
	if r.Seq() != live.Seq() || r.Len() != live.Len() || r.NextID() != live.NextID() {
		t.Fatalf("%s: restored seq/len/next = %d/%d/%d, want %d/%d/%d",
			ctx, r.Seq(), r.Len(), r.NextID(), live.Seq(), live.Len(), live.NextID())
	}
	sketchStatesEqual(t, live, r)
	_, ids := live.Strings()
	for _, id := range ids {
		if got, want := r.entries[id].self, live.entries[id].self; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: restored k(x%d, x%d) = %v, want %v", ctx, id, id, got, want)
		}
		want, err := live.Similar(id, -1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Similar(id, -1)
		if err != nil {
			t.Fatal(err)
		}
		assertSameNeighbors(t, fmt.Sprintf("%s: Similar(%d)", ctx, id), want, got)
		wantApprox, err1 := live.SimilarApprox(id, 3, -1)
		gotApprox, err2 := r.SimilarApprox(id, 3, -1)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: SimilarApprox(%d) errors %v and %v", ctx, id, err1, err2)
		}
		assertSameNeighbors(t, fmt.Sprintf("%s: SimilarApprox(%d)", ctx, id), wantApprox, gotApprox)
	}
}

// TestByIDSharedRowsMatchBruteForce: workload traces repeat a few literal
// sequences, so Kast rows share match tables and derive values by a class
// dot product. By-id answers must still equal a from-scratch kernel.Gram
// bit for bit, for one worker and for a chunking that splits runs, and the
// shared-evaluation counter must count the derived values.
func TestByIDSharedRowsMatchBruteForce(t *testing.T) {
	r := xrand.New(3)
	xs := make([]token.String, 45)
	for i := range xs {
		tr, err := iogen.GenerateExtended(iogen.LoadCategories[i%len(iogen.LoadCategories)], r)
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = core.Convert(tr, core.Options{})
	}
	for _, workers := range []int{1, 3} {
		reg := obs.NewRegistry()
		met := NewMetrics(reg, nil)
		e := New(Options{Kernel: &core.Kast{CutWeight: 2}, Workers: workers, SketchDim: 32, SketchSeed: 3, Metrics: met})
		if _, err := e.AddBatch(xs); err != nil {
			t.Fatal(err)
		}
		assertByIDMatchesBrute(t, fmt.Sprintf("workers=%d", workers), e)
		if met.SharedEvals.Value() == 0 || met.SharedEvals.Value() >= met.KernelEvals.Value() {
			t.Fatalf("workers=%d: %d shared of %d kernel evaluations", workers, met.SharedEvals.Value(), met.KernelEvals.Value())
		}
	}
}
