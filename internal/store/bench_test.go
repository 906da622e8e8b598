package store

import (
	"fmt"
	"testing"

	"iokast/internal/engine"
	"iokast/internal/token"
	"iokast/internal/xrand"
)

// benchTraces builds n converted traces from the paper generator, cycling
// if n exceeds the dataset.
func benchTraces(b *testing.B, n int) []token.String {
	base := corpus(b, 64, 77)
	xs := make([]token.String, n)
	for i := range xs {
		xs[i] = base[i%len(base)]
	}
	return xs
}

// smallStrings builds n short synthetic weighted strings (the small-trace
// regime where the WAL commit, not the kernel, bounds ingest throughput).
func smallStrings(n int) []token.String {
	r := xrand.New(123)
	xs := make([]token.String, n)
	for i := range xs {
		s := make(token.String, 1+r.Intn(2))
		for j := range s {
			s[j] = token.Token{Literal: fmt.Sprintf("op%d", r.Intn(8)), Weight: r.IntRange(1, 5)}
		}
		xs[i] = s
	}
	return xs
}

// BenchmarkDurableAddSequential ingests n traces one Add at a time into a
// durable engine: n WAL records, n fsyncs.
func BenchmarkDurableAddSequential(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchTraces(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, st, err := Open(b.TempDir(), kastEngine, Options{SnapshotEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, x := range xs {
					eng.Add(x)
				}
				b.StopTimer()
				if err := eng.Err(); err != nil {
					b.Fatal(err)
				}
				st.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkDurableAddBatch ingests the same n traces as one AddBatch: one
// WAL record, one fsync, and one parallel fan-out of the n self-similarity
// evaluations.
func BenchmarkDurableAddBatch(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchTraces(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, st, err := Open(b.TempDir(), kastEngine, Options{SnapshotEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := eng.AddBatch(xs); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st.Close()
				b.StartTimer()
			}
		})
	}
}

// TestAddBatchSpeedupAtN64 pins the mechanism behind batched ingestion on
// a durable engine: 64 sequential Adds append 64 WAL records, one 64-trace
// AddBatch appends 1. Each record is one fsync, the per-commit cost that
// bounds ingest of small traces. Both paths evaluate the same 64
// self-similarities. The wall-clock ratio is measured by
// BenchmarkDurableAddSequential and BenchmarkDurableAddBatch, not asserted
// here.
func TestAddBatchSpeedupAtN64(t *testing.T) {
	xs := smallStrings(64)
	records := func(ingest func(eng *engine.Engine) error) uint64 {
		eng, st, err := Open(t.TempDir(), kastEngine, Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := ingest(eng); err != nil {
			t.Fatal(err)
		}
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		if eng.Len() != len(xs) {
			t.Fatalf("ingested %d traces, want %d", eng.Len(), len(xs))
		}
		return st.Stats().AppendedRecords
	}

	seq := records(func(eng *engine.Engine) error {
		for _, x := range xs {
			eng.Add(x)
		}
		return nil
	})
	batch := records(func(eng *engine.Engine) error {
		_, err := eng.AddBatch(xs)
		return err
	})
	if seq != 64 || batch != 1 {
		t.Fatalf("WAL records: %d for 64 Adds, %d for one AddBatch; want 64 and 1", seq, batch)
	}
}
