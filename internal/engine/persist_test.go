package engine

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"iokast/internal/core"
	"iokast/internal/matrixio"
	"iokast/internal/token"
)

// TestAddBatchMatchesSequential: a batch insert must leave the engine in
// exactly the state m sequential Adds would — same ids, bitwise-equal Gram
// matrix — under either viability rule.
func TestAddBatchMatchesSequential(t *testing.T) {
	xs := corpus(t, 24, 11)
	for _, kern := range []*core.Kast{
		{CutWeight: 2},
		{CutWeight: 2, Viability: core.ViaTotalWeight},
	} {
		seqEng := New(Options{Kernel: kern})
		for _, x := range xs {
			seqEng.Add(x)
		}
		batchEng := New(Options{Kernel: kern})
		// Split across three batches, with a plain Add in between.
		if ids, err := batchEng.AddBatch(xs[:10]); err != nil || len(ids) != 10 || ids[0] != 0 || ids[9] != 9 {
			t.Fatalf("%s: first batch ids %v err %v", kern.Name(), ids, err)
		}
		if id := batchEng.Add(xs[10]); id != 10 {
			t.Fatalf("%s: interleaved Add id %d", kern.Name(), id)
		}
		if ids, err := batchEng.AddBatch(xs[11:]); err != nil || len(ids) != 13 || ids[0] != 11 {
			t.Fatalf("%s: second batch ids %v err %v", kern.Name(), ids, err)
		}
		gs, _ := seqEng.Gram()
		gb, idsB := batchEng.Gram()
		if len(idsB) != len(xs) {
			t.Fatalf("%s: %d ids after batches, want %d", kern.Name(), len(idsB), len(xs))
		}
		if d := gs.MaxAbsDiff(gb); d != 0 {
			t.Errorf("%s: batch Gram differs from sequential by %g", kern.Name(), d)
		}
	}
}

// TestAddBatchEmptyAndAfterRemove covers the edge cases: empty batch is a
// no-op; a batch after a removal compares only against live entries.
func TestAddBatchEmptyAndAfterRemove(t *testing.T) {
	xs := corpus(t, 8, 5)
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	if ids, err := e.AddBatch(nil); err != nil || ids != nil {
		t.Fatalf("empty batch: ids %v err %v", ids, err)
	}
	if _, err := e.AddBatch(xs[:4]); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddBatch(xs[4:]); err != nil {
		t.Fatal(err)
	}
	// Reference: sequential engine with the same history.
	ref := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	for _, x := range xs[:4] {
		ref.Add(x)
	}
	if err := ref.Remove(1); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[4:] {
		ref.Add(x)
	}
	got, gotIDs := e.Gram()
	want, wantIDs := ref.Gram()
	if len(gotIDs) != len(wantIDs) || len(gotIDs) != 7 {
		t.Fatalf("ids %v vs %v", gotIDs, wantIDs)
	}
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Errorf("post-remove batch Gram differs by %g", d)
	}
}

// TestSnapshotRestoreRoundTrip: a restored engine must serve bit-identical
// state — Gram, ids, tombstones, similarity queries, seq — and accept
// further mutations that match the original engine's behaviour.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	xs := corpus(t, 16, 9)
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	for _, x := range xs[:12] {
		e.Add(x)
	}
	if err := e.Remove(3); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(7); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	if err := r.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	if r.Seq() != e.Seq() || r.Len() != e.Len() || r.NextID() != e.NextID() {
		t.Fatalf("restored seq/len/next = %d/%d/%d, want %d/%d/%d",
			r.Seq(), r.Len(), r.NextID(), e.Seq(), e.Len(), e.NextID())
	}
	ge, idsE := e.Gram()
	gr, idsR := r.Gram()
	if len(idsE) != len(idsR) {
		t.Fatalf("restored ids %v, want %v", idsR, idsE)
	}
	for i := range idsE {
		if idsE[i] != idsR[i] {
			t.Fatalf("restored ids %v, want %v", idsR, idsE)
		}
	}
	if d := ge.MaxAbsDiff(gr); d != 0 {
		t.Errorf("restored Gram differs by %g (must be bit-identical)", d)
	}

	// Both engines must evolve identically after the snapshot point.
	for _, x := range xs[12:] {
		if ide, idr := e.Add(x), r.Add(x); ide != idr {
			t.Fatalf("post-restore Add ids diverge: %d vs %d", ide, idr)
		}
	}
	ge, _ = e.Gram()
	gr, _ = r.Gram()
	if d := ge.MaxAbsDiff(gr); d != 0 {
		t.Errorf("post-restore Gram differs by %g", d)
	}
	ne, err := e.Similar(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := r.Similar(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ne {
		if ne[i] != nr[i] {
			t.Fatalf("restored Similar diverges at %d: %v vs %v", i, nr[i], ne[i])
		}
	}
}

// TestRestoreRejects covers the failure paths: non-empty engine, kernel
// mismatch, and corruption anywhere in the stream.
func TestRestoreRejects(t *testing.T) {
	xs := corpus(t, 6, 2)
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	for _, x := range xs {
		e.Add(x)
	}
	var buf bytes.Buffer
	if _, err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	full := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	full.Add(xs[0])
	if err := full.Restore(bytes.NewReader(good)); err == nil {
		t.Error("Restore into non-empty engine did not fail")
	}

	other := New(Options{Kernel: &core.Kast{CutWeight: 2, Viability: core.ViaTotalWeight}})
	if err := other.Restore(bytes.NewReader(good)); err == nil {
		t.Error("Restore with mismatched kernel did not fail")
	}

	for pos := 0; pos < len(good); pos += 11 {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x20
		fresh := New(Options{Kernel: &core.Kast{CutWeight: 2}})
		if err := fresh.Restore(bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at byte %d not detected", pos)
		}
	}
	for cut := 0; cut < len(good); cut += 7 {
		fresh := New(Options{Kernel: &core.Kast{CutWeight: 2}})
		if err := fresh.Restore(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d bytes not detected", cut)
		}
	}
}

// countingWriter counts the Write calls and bytes that reach it.
type countingWriter struct{ writes, bytes int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

// TestSnapshotBuffersWrites: a snapshot reaches its writer in buffer-sized
// chunks, not one Write per id slot of every binary block (sketch vectors,
// self-similarities), absent slots included.
func TestSnapshotBuffersWrites(t *testing.T) {
	xs := corpus(t, 48, 5)
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	if _, err := e.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < len(xs); id += 3 {
		if err := e.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	var c countingWriter
	if _, err := e.Snapshot(&c); err != nil {
		t.Fatal(err)
	}
	// A bufio.Writer passes on full 4096-byte buffers (or larger single
	// writes), so only the final flush may be shorter.
	if limit := c.bytes/4096 + 1; c.writes > limit {
		t.Fatalf("snapshot of %d bytes took %d writes, want at most %d", c.bytes, c.writes, limit)
	}
}

// recordingLog captures Log calls for inspection and optionally fails.
type recordingLog struct {
	inserts [][]int
	removes []int
	fail    error
}

func (l *recordingLog) LogInsert(ids []int, xs []token.String) error {
	l.inserts = append(l.inserts, append([]int(nil), ids...))
	return l.fail
}

func (l *recordingLog) LogRemove(id int) error {
	l.removes = append(l.removes, id)
	return l.fail
}

// TestLogHook: every accepted mutation reaches the log with the right ids;
// log failures are sticky in Err but do not block serving.
func TestLogHook(t *testing.T) {
	xs := corpus(t, 6, 3)
	log := &recordingLog{}
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}, Log: log})
	e.Add(xs[0])
	if _, err := e.AddBatch(xs[1:4]); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(99); err == nil {
		t.Fatal("Remove of unknown id did not fail")
	}
	if len(log.inserts) != 2 || !slices.Equal(log.inserts[0], []int{0}) || !slices.Equal(log.inserts[1], []int{1, 2, 3}) {
		t.Errorf("logged inserts %v, want [[0] [1 2 3]]", log.inserts)
	}
	if len(log.removes) != 1 || log.removes[0] != 2 {
		t.Errorf("logged removes %v (the failed Remove must not be logged)", log.removes)
	}
	if e.Seq() != 5 {
		t.Errorf("seq = %d, want 5", e.Seq())
	}
	if e.Err() != nil {
		t.Fatalf("unexpected engine error %v", e.Err())
	}

	log.fail = bytes.ErrTooLarge
	if id := e.Add(xs[4]); id != 4 {
		t.Fatalf("Add after log failure returned %d", id)
	}
	if e.Err() == nil {
		t.Fatal("log failure not surfaced via Err")
	}
	if e.Len() != 4 {
		t.Fatalf("Len = %d after degraded Add", e.Len())
	}
}

// TestInsertCallerIDs: Insert stores caller-assigned ids and leaves the ids
// it skips as empty slots, which read like removed ones, survive a
// snapshot, and are never reused. Ids that do not increase, or that start
// below NextID, are refused with nothing logged or applied.
func TestInsertCallerIDs(t *testing.T) {
	xs := corpus(t, 6, 4)
	log := &recordingLog{}
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}, Log: log})
	if err := e.Insert([]int{2, 5}, xs[:2]); err != nil {
		t.Fatal(err)
	}
	if e.NextID() != 6 || e.Len() != 2 || e.Seq() != 2 {
		t.Fatalf("NextID=%d Len=%d Seq=%d, want 6/2/2", e.NextID(), e.Len(), e.Seq())
	}
	for id, want := range map[int]bool{0: false, 2: true, 3: false, 5: true} {
		if e.Has(id) != want || (e.SketchVec(id) != nil) != want {
			t.Errorf("id %d: Has=%v, sketched=%v, want %v", id, e.Has(id), e.SketchVec(id) != nil, want)
		}
	}
	if err := e.Remove(3); err == nil {
		t.Fatal("Remove of a skipped id succeeded")
	}
	if ids, err := e.AddBatch(xs[2:3]); err != nil || ids[0] != 6 {
		t.Fatalf("AddBatch after Insert assigned %v (%v), want [6]", ids, err)
	}

	logged := len(log.inserts)
	for _, c := range []struct {
		name string
		ids  []int
		xs   []token.String
		full bool // refused with ErrIDSpaceFull
	}{
		{"taken id", []int{6}, xs[3:4], false},
		{"skipped id below NextID", []int{4}, xs[3:4], false},
		{"repeated id", []int{8, 8}, xs[3:5], false},
		{"decreasing ids", []int{9, 8}, xs[3:5], false},
		{"count mismatch", []int{9}, xs[3:5], false},
		{"id at the id-space limit", []int{9, matrixio.MaxSlots}, xs[3:5], true},
		{"huge id", []int{1 << 40}, xs[3:4], true},
	} {
		err := e.Insert(c.ids, c.xs)
		if err == nil {
			t.Errorf("%s: Insert(%v) accepted", c.name, c.ids)
		} else if errors.Is(err, ErrIDSpaceFull) != c.full {
			t.Errorf("%s: Insert(%v) error %v, ErrIDSpaceFull=%v", c.name, c.ids, err, c.full)
		}
	}
	if len(log.inserts) != logged || e.NextID() != 7 || e.Len() != 3 || e.Seq() != 3 {
		t.Fatalf("refused inserts changed state: logged %d→%d, NextID=%d Len=%d Seq=%d",
			logged, len(log.inserts), e.NextID(), e.Len(), e.Seq())
	}

	ns, err := e.Similar(2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 || ns[0].ID == ns[1].ID || (ns[0].ID != 5 && ns[0].ID != 6) || (ns[1].ID != 5 && ns[1].ID != 6) {
		t.Fatalf("Similar(2) = %+v, want ids 5 and 6", ns)
	}

	var buf bytes.Buffer
	if _, err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r := New(Options{Kernel: &core.Kast{CutWeight: 2}})
	if err := r.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if r.NextID() != 7 || r.Has(3) || !r.Has(5) {
		t.Fatalf("restored NextID=%d Has(3)=%v Has(5)=%v", r.NextID(), r.Has(3), r.Has(5))
	}
	got, err := r.Similar(2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ns) {
		t.Fatalf("restored Similar(2) = %+v, want %+v", got, ns)
	}
}

// TestIDSpaceLimit: the id space ends where a snapshot block's slots do.
// An engine holding the last id still snapshots and restores; every insert
// past it is refused with ErrIDSpaceFull before it is logged, and Add
// reports the refusal as id -1.
func TestIDSpaceLimit(t *testing.T) {
	xs := corpus(t, 2, 5)
	log := &recordingLog{}
	e := New(Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: -1, Log: log})
	last := matrixio.MaxSlots - 1
	if err := e.Insert([]int{last}, xs[:1]); err != nil {
		t.Fatal(err)
	}
	if ids, err := e.AddBatch(xs); ids != nil || !errors.Is(err, ErrIDSpaceFull) {
		t.Fatalf("AddBatch past the limit = %v, %v; want nil, ErrIDSpaceFull", ids, err)
	}
	if id := e.Add(xs[1]); id != -1 {
		t.Fatalf("Add past the limit = %d, want -1", id)
	}
	if len(log.inserts) != 1 || e.Len() != 1 || e.NextID() != matrixio.MaxSlots || e.Err() != nil {
		t.Fatalf("refusals changed state: %d inserts logged, Len=%d NextID=%d Err=%v",
			len(log.inserts), e.Len(), e.NextID(), e.Err())
	}

	var buf bytes.Buffer
	if _, err := e.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot at the limit: %v", err)
	}
	r := New(Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: -1})
	if err := r.Restore(&buf); err != nil {
		t.Fatalf("restore at the limit: %v", err)
	}
	if r.NextID() != matrixio.MaxSlots || !r.Has(last) || r.Len() != 1 {
		t.Fatalf("restored NextID=%d Has(last)=%v Len=%d", r.NextID(), r.Has(last), r.Len())
	}
}
