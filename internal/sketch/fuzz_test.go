package sketch_test

import (
	"bytes"
	"math"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/sketch"
	"iokast/internal/token"
)

// FuzzSketchDeterminism fuzzes the invariant everything downstream leans
// on: for any parseable weighted string and any (dim, seed), sketching is
// bit-deterministic, so an engine that adds the string, and one that
// restores it from a snapshot (which re-sketches it), hold identical bits.
func FuzzSketchDeterminism(f *testing.F) {
	f.Add("read[4096]:3 write[512]:1 read[4096]:3", uint16(64), uint64(0))
	f.Add("[ROOT]:1 [HANDLE]:1 open:1 write[32768]:900 close:1", uint16(256), uint64(42))
	f.Add("a:1", uint16(1), uint64(^uint64(0)))
	f.Add("lseek+read[4096]:70 lseek+write[4096]:50 [LEVEL_UP]:2", uint16(8), uint64(7))
	f.Fuzz(func(t *testing.T, text string, dimRaw uint16, seed uint64) {
		x, err := token.Parse(text)
		if err != nil || len(x) == 0 || x.Validate() != nil {
			t.Skip()
		}
		if len(x) > 256 {
			x = x[:256] // keep each execution cheap
		}
		dim := int(dimRaw)%512 + 1

		s := sketch.New(sketch.Options{Dim: dim, Seed: seed})
		vec := s.Sketch(x)
		again := sketch.New(sketch.Options{Dim: dim, Seed: seed}).Sketch(x)
		requireSameBits(t, vec, again, "re-sketch")

		// Engine snapshot round-trip: the snapshot holds the string, and
		// the restored engine's re-sketch of it must equal the direct
		// sketch bit for bit.
		opts := engine.Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: dim, SketchSeed: seed}
		e := engine.New(opts)
		e.Add(x)
		requireSameBits(t, vec, e.SketchVec(0), "engine Add")
		var snap bytes.Buffer
		if _, err := e.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		rec := engine.New(opts)
		if err := rec.Restore(&snap); err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, vec, rec.SketchVec(0), "snapshot round-trip")
	})
}

func requireSameBits(t *testing.T, want, got []float64, context string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: width %d vs %d", context, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: bit mismatch at %d: %x vs %x",
				context, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
		}
	}
}
