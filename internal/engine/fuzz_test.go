package engine

import (
	"bytes"
	"os"
	"runtime"
	"slices"
	"testing"
)

// FuzzSnapshotRestore feeds Restore arbitrary bytes. It never panics, and
// the snapshot reader allocates in proportion to the input, never by a
// count or length the input merely claims. An input it accepts snapshots
// again to bytes that restore to the same seq, next id and strings, and a
// snapshot of that second restore is byte-identical to the first one.
// Seeds: a small version 5 snapshot and the committed version 3 and 4
// fixtures.
func FuzzSnapshotRestore(f *testing.F) {
	opt := Options{SketchDim: 16}
	e := New(opt)
	if _, err := e.AddBatch(corpus(f, 4, 1)); err != nil {
		f.Fatal(err)
	}
	if err := e.Remove(1); err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if _, err := e.Snapshot(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	for _, name := range []string{"testdata/snapshot-v3.bin", "testdata/snapshot-v4-banded.bin"} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	kernelName := e.Kernel().Name()
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, readErr := readSnapshot(bytes.NewReader(data), kernelName)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+128*len(data)); grew > limit {
			t.Fatalf("reading a %d-byte snapshot allocated %d bytes, more than %d", len(data), grew, limit)
		}

		r := New(opt)
		if err := r.Restore(bytes.NewReader(data)); (err == nil) != (readErr == nil) {
			t.Fatalf("Restore error %v, reader error %v", err, readErr)
		} else if err != nil {
			return
		}
		var again bytes.Buffer
		if _, err := r.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		r2 := New(opt)
		if err := r2.Restore(bytes.NewReader(again.Bytes())); err != nil {
			t.Fatalf("restore of a re-snapshot: %v", err)
		}
		if r2.Seq() != r.Seq() || r2.NextID() != r.NextID() {
			t.Fatalf("re-snapshot restored seq/next %d/%d, want %d/%d", r2.Seq(), r2.NextID(), r.Seq(), r.NextID())
		}
		xs, ids := r.Strings()
		xs2, ids2 := r2.Strings()
		if !slices.Equal(ids, ids2) || len(xs) != len(xs2) {
			t.Fatalf("re-snapshot restored ids %v, want %v", ids2, ids)
		}
		for i := range xs {
			if !slices.Equal(xs[i], xs2[i]) {
				t.Fatalf("id %d: re-snapshot restored %q, want %q", ids[i], xs2[i].Format(), xs[i].Format())
			}
		}
		var third bytes.Buffer
		if _, err := r2.Snapshot(&third); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(third.Bytes(), again.Bytes()) {
			t.Fatal("a snapshot of the restored re-snapshot differs from it")
		}
	})
}
