package sketch

import (
	"math"
	"sync/atomic"

	"iokast/internal/token"
)

// sketchOps counts every vector embedding computed process-wide. One
// atomic add against microseconds of hashing is free; it lets regression
// tests assert that query paths embed exactly once (the sharded fan-out
// must not re-sketch a query per shard).
var sketchOps atomic.Uint64

// SketchOps returns the cumulative number of Sketch calls in this
// process. Tests diff it around an operation to count embeddings.
func SketchOps() uint64 { return sketchOps.Load() }

const (
	// DefaultDim is the sketch width used when Options.Dim is 0. At 256
	// buckets the hashed estimate separates the paper's trace categories
	// with recall@10 >= 0.9 (asserted by the package's recall tests) while
	// a corpus scan stays a few hundred multiply-adds per entry.
	DefaultDim = 256
	// MaxLen is the longest substring Sketch hashes, in tokens. Eight
	// tokens comfortably covers the compound patterns the §3.1 compression
	// emits; longer shared runs still contribute through every window they
	// contain.
	MaxLen = 8
	// DefaultBands and DefaultRows are unused: the index has no LSH bands.
	// They stay only until the load harness, which still names them in
	// engine.Options, stops doing so.
	DefaultBands = 16
	DefaultRows  = 8
)

// Options configure a Sketcher. The zero value means DefaultDim buckets
// and seed 0.
type Options struct {
	// Dim is the number of hash buckets (the vector width); 0 means
	// DefaultDim.
	Dim int
	// Seed keys every hash. Two Sketchers with different seeds produce
	// unrelated embeddings; sketches are only comparable when produced
	// with identical Dim and Seed.
	Seed uint64
}

// Sketcher embeds weighted strings into fixed-width vectors. It is
// stateless apart from its options and safe for concurrent use.
type Sketcher struct {
	dim  int
	seed uint64
}

// New returns a Sketcher for the options, applying defaults.
func New(opt Options) *Sketcher {
	if opt.Dim <= 0 {
		opt.Dim = DefaultDim
	}
	return &Sketcher{dim: opt.Dim, seed: opt.Seed}
}

// Dim returns the sketch width.
func (s *Sketcher) Dim() int { return s.dim }

// Seed returns the hash seed.
func (s *Sketcher) Seed() uint64 { return s.seed }

// Sketch embeds x by hashing every contiguous substring of 1..MaxLen
// tokens, valued by its occurrence weight — the same window features the
// Blended Spectrum kernel extracts, which proxy the Kast kernel's
// shared-substring features well enough for shortlist recall. The result
// has unit L2 norm (zero for degenerate inputs), so the dot product of two
// sketches is their cosine.
func (s *Sketcher) Sketch(x token.String) []float64 {
	sketchOps.Add(1)
	vec := make([]float64, s.dim)
	n := len(x)
	// Per-token literal hashes and prefix weights; the substring hash is a
	// polynomial over the token hashes, extended by one token per step, so
	// the whole embedding is O(n * MaxLen) hash-and-accumulate operations.
	th := make([]uint64, n)
	pw := make([]int, n+1)
	for i, t := range x {
		th[i] = hashString(t.Literal)
		pw[i+1] = pw[i] + t.Weight
	}
	for i := 0; i < n; i++ {
		var h uint64
		for l := 1; l <= MaxLen && i+l <= n; l++ {
			h = h*polyBase + th[i+l-1]
			// The polynomial hash alone lets substrings of different
			// lengths collide; folding in l keys them apart before the
			// final mix.
			s.accumulate(vec, mix64(h^uint64(l)*lenSalt), float64(pw[i+l]-pw[i]))
		}
	}
	normalize(vec)
	return vec
}

// accumulate adds value v for feature hash h: bucket from the low bits,
// sign from the top bit, both after seeding.
func (s *Sketcher) accumulate(vec []float64, h uint64, v float64) {
	h = mix64(h ^ s.seed)
	if h>>63 != 0 {
		v = -v
	}
	vec[h%uint64(s.dim)] += v
}

// Dot returns the inner product of two equal-width sketches; on unit
// vectors this is their cosine similarity.
func Dot(a, b []float64) float64 {
	var sum float64
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

func normalize(vec []float64) {
	var sq float64
	for _, v := range vec {
		sq += v * v
	}
	if sq <= 0 {
		return
	}
	inv := 1 / math.Sqrt(sq)
	for i := range vec {
		vec[i] *= inv
	}
}

const (
	// FNV-1a 64-bit parameters for literal hashing.
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
	// Odd multiplier for the rolling substring polynomial.
	polyBase = 0x9e3779b97f4a7c15 | 1
	// Salt separating substring lengths in the final key.
	lenSalt = 0xc2b2ae3d27d4eb4f | 1
)

// hashString is FNV-1a over the bytes of s.
func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mix64 is the SplitMix64 finalizer: a cheap bijective mixer whose output
// bits are all functions of all input bits.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
