package load

import (
	"testing"
	"time"

	"iokast/internal/hdr"
	"iokast/internal/xrand"
)

// TestHistogramBuckets pins the exposition contract: per-bucket counts
// sum to exactly Count(), bounds are strictly monotone, and every
// recorded value is covered by a bucket whose bound is at least as large
// as the value (so a cumulative "le" exposition is always correct).
func TestHistogramBuckets(t *testing.T) {
	var h hdr.Histogram
	if got := h.Buckets(); got != nil {
		t.Fatalf("Buckets on empty histogram = %v, want nil", got)
	}

	rng := xrand.New(7)
	var maxMicros int64
	for i := 0; i < 10000; i++ {
		// Spread across many octaves: sub-µs to minutes.
		u := int64(rng.Uint64() % (1 << (rng.Uint64() % 36)))
		if u > maxMicros {
			maxMicros = u
		}
		h.Record(time.Duration(u) * time.Microsecond)
	}
	// Hit the clamped top bucket too.
	h.Record(100 * time.Hour)

	bs := h.Buckets()
	if len(bs) == 0 {
		t.Fatal("Buckets returned none after recording")
	}
	var total int64
	prev := int64(-1)
	for i, b := range bs {
		if b.Count <= 0 {
			t.Fatalf("bucket %d has non-positive count %d", i, b.Count)
		}
		if b.UpperMicros <= prev {
			t.Fatalf("bucket bounds not monotone: bucket %d bound %d after %d", i, b.UpperMicros, prev)
		}
		prev = b.UpperMicros
		total += b.Count
	}
	if total != h.Count() {
		t.Fatalf("bucket counts sum to %d, want Count() = %d", total, h.Count())
	}
	// Every value except top-bucket clamps is below the last bound;
	// maxMicros was recorded, so the final bound must reach it.
	if last := bs[len(bs)-1].UpperMicros; last <= maxMicros && h.Max() < 100*time.Hour {
		t.Fatalf("last bound %dµs does not cover max recorded %dµs", last, maxMicros)
	}
}

// TestHistogramSum pins that Sum is exact (no bucket quantization) and
// consistent with Mean.
func TestHistogramSum(t *testing.T) {
	var h hdr.Histogram
	if h.Sum() != 0 {
		t.Fatalf("Sum on empty histogram = %v", h.Sum())
	}
	vals := []time.Duration{3 * time.Microsecond, 900 * time.Microsecond, 17 * time.Millisecond}
	var want time.Duration
	for _, v := range vals {
		h.Record(v)
		want += v
	}
	if h.Sum() != want {
		t.Fatalf("Sum = %v, want %v", h.Sum(), want)
	}
	// Mean truncates to whole microseconds (sum is kept in µs).
	wantMean := time.Duration(want.Microseconds()/int64(len(vals))) * time.Microsecond
	if mean := h.Mean(); mean != wantMean {
		t.Fatalf("Mean = %v, want %v", mean, wantMean)
	}
}
