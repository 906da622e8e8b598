package sketch

import (
	"fmt"
	"testing"

	"iokast/internal/token"
	"iokast/internal/xrand"
)

// randomStream synthesizes a token stream over a small literal alphabet
// with weights in [1, 100].
func randomStream(r *xrand.Rand, n int) token.String {
	lits := []string{"read[4096]", "write[32768]", "write[8]", "[HANDLE]", "[BLOCK]", "lseek[0]", "[LEVEL_UP]", "close[0]"}
	s := make(token.String, n)
	for i := range s {
		s[i] = token.Token{Literal: lits[r.Intn(len(lits))], Weight: 1 + r.Intn(100)}
	}
	return s
}

// TestAccumMatchesSketchBitwise is the accumulator's core contract: after
// any sequence of appends and evictions, Vector() equals Sketcher.Sketch
// of the window token string bit for bit — not approximately. Integer
// contributions make float accumulation exact, so sliding the window
// never drifts from the batch embedding.
func TestAccumMatchesSketchBitwise(t *testing.T) {
	for _, cfg := range []Options{
		{},
		{Dim: 64, Seed: 7},
		{Dim: 32, Seed: 12345},
		{Dim: 128},
		{Dim: 16},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("dim=%d,seed=%d", cfg.Dim, cfg.Seed), func(t *testing.T) {
			s := New(cfg)
			r := xrand.New(uint64(cfg.Dim)*31 + cfg.Seed)
			stream := randomStream(r, 400)
			const window = 37
			a := s.NewAccum()
			for i, tok := range stream {
				a.Append(tok)
				for a.Len() > window {
					a.Evict()
				}
				if i%13 != 0 {
					continue // check a sample of window positions
				}
				lo := i + 1 - a.Len()
				want := s.Sketch(stream[lo : i+1])
				got := a.Vector()
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("pos %d bucket %d: accum %v != sketch %v", i, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// TestAccumDrainAndRefill: evicting everything returns to the zero
// vector exactly, and the accumulator is reusable afterwards.
func TestAccumDrainAndRefill(t *testing.T) {
	s := New(Options{Dim: 64})
	r := xrand.New(99)
	stream := randomStream(r, 50)
	a := s.NewAccum()
	for _, tok := range stream {
		a.Append(tok)
	}
	for a.Evict() {
	}
	if a.Len() != 0 {
		t.Fatalf("Len after drain = %d", a.Len())
	}
	if a.Evict() {
		t.Fatal("Evict on empty accum reported true")
	}
	for _, v := range a.Vector() {
		if v != 0 {
			t.Fatalf("drained vector not exactly zero: %v", a.Vector())
		}
	}
	// Refill with a different stream: still bit-identical to batch.
	stream2 := randomStream(r, 20)
	for _, tok := range stream2 {
		a.Append(tok)
	}
	want := s.Sketch(stream2)
	got := a.Vector()
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("refill bucket %d: %v != %v", j, got[j], want[j])
		}
	}
}

// TestAccumDoesNotCountAsSketchOp: incremental maintenance must not bump
// the process-wide embedding counter — that counter is how tests prove a
// streaming session embeds O(delta), not O(window), per tick.
func TestAccumDoesNotCountAsSketchOp(t *testing.T) {
	s := New(Options{Dim: 32})
	a := s.NewAccum()
	before := SketchOps()
	for i := 0; i < 100; i++ {
		a.Append(token.Token{Literal: "read[1]", Weight: 1})
		if a.Len() > 10 {
			a.Evict()
		}
	}
	_ = a.Vector()
	if d := SketchOps() - before; d != 0 {
		t.Fatalf("accum maintenance performed %d full embeddings", d)
	}
}
