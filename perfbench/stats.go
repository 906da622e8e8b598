package main

import (
	"math"
	"sort"
	"time"
)

// Percentile is one order statistic of a sample together with the number
// of samples strictly beyond it. A tail percentile is worth reporting only
// when Beyond is at least minTail; fewer samples past it make it a reading
// of a handful of outliers, not of the distribution.
type Percentile struct {
	P      float64 // requested percentile, 0 < P <= 100
	Value  float64
	N      int // sample size
	Beyond int // samples strictly greater than Value
}

// minTail is how many samples a reported tail percentile must leave beyond
// itself.
const minTail = 10

// Supported reports whether the sample leaves at least minTail samples
// beyond the percentile.
func (p Percentile) Supported() bool { return p.Beyond >= minTail }

// percentile returns the nearest-rank percentile of xs (the smallest value
// with at least p% of the sample at or below it). xs need not be sorted and
// is not modified. An empty sample yields NaN.
func percentile(xs []float64, p float64) Percentile {
	out := Percentile{P: p, N: len(xs), Value: math.NaN()}
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	out.Value = s[rank-1]
	// Ties with the percentile value are not "beyond" it.
	out.Beyond = len(s) - sort.SearchFloat64s(s, math.Nextafter(out.Value, math.Inf(1)))
	return out
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 50).Value }

// mean is the arithmetic mean; NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
