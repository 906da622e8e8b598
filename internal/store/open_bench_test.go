package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/iogen"
	"iokast/internal/store"
	"iokast/internal/token"
	"iokast/internal/xrand"
)

// BenchmarkStoreOpen times recovery: store.Open of a crash image shaped
// like the end of perfbench's ingest-durable workload. n workload traces
// went into iokserve's default engine (Kast cut 2, 256-wide sketches) as
// one 64-trace batch and then 4-trace batches, with a snapshot at n-64,
// so the WAL holds a 64-trace tail, and the process died without Close.
// Each iteration opens a fresh copy of the image, made outside the timer:
// Open restores the snapshot, replays the tail, and writes and fsyncs its
// checkpoint. It uses only the package's exported API.
func BenchmarkStoreOpen(b *testing.B) {
	newEngine := func() *engine.Engine { return engine.New(engine.Options{}) }
	for _, n := range []int{1088, 4160} {
		image := crashImage(b, newEngine, n)
		b.Run(fmt.Sprintf("traces=%d", n), func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "data")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copyFiles(b, image, dir)
				b.StartTimer()
				eng, st, err := store.Open(dir, newEngine, store.Options{})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if eng.Len() != n {
					b.Fatalf("recovered %d traces, want %d", eng.Len(), n)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// crashImage ingests n workload traces into a durable engine as
// ingest-durable does, snapshots at n-64, and abandons the store. The
// image is written without fsync: the file contents are the same.
func crashImage(b *testing.B, newEngine func() *engine.Engine, n int) string {
	dir := filepath.Join(b.TempDir(), "image")
	eng, st, err := store.Open(dir, newEngine, store.Options{SnapshotEvery: -1, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(iogen.ClientSeed(1, 0))
	xs := make([]token.String, n)
	for i := range xs {
		tr, err := iogen.GenerateExtended(iogen.LoadCategories[i%len(iogen.LoadCategories)], r)
		if err != nil {
			b.Fatal(err)
		}
		xs[i] = core.Convert(tr, core.Options{})
	}
	for lo, size := 0, 64; lo < n; lo, size = lo+size, 4 {
		if lo == n-64 {
			if err := st.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := eng.AddBatch(xs[lo : lo+size]); err != nil {
			b.Fatal(err)
		}
	}
	return dir // abandoned: no Close
}

// copyFiles replaces dst with a copy of the files in src.
func copyFiles(b *testing.B, src, dst string) {
	if err := os.RemoveAll(dst); err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
