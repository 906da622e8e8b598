// Package kernel defines the kernel-function interface used throughout the
// project and implements the baseline string kernels the paper compares
// against (§2.2/§4.3): the k-Spectrum Kernel (Leslie et al. 2002), the
// Blended Spectrum Kernel (Shawe-Taylor & Cristianini 2004), and the
// bag-of-characters / bag-of-words kernels, all adapted to weighted token
// strings. It also provides Gram-matrix computation, cosine normalisation,
// feature-space centring, and the positive-semidefinite repair step the
// paper applies before Kernel PCA.
//
// The paper's own contribution, the Kast Spectrum Kernel, lives in
// internal/core and implements the same Kernel interface.
package kernel

import (
	"math"
	"sort"

	"iokast/internal/token"
)

// Kernel is a similarity function over weighted strings. Implementations
// must be symmetric: Compare(a, b) == Compare(b, a).
type Kernel interface {
	// Name identifies the kernel (and its parameters) for reports.
	Name() string
	// Compare returns the kernel value k(a, b).
	Compare(a, b token.String) float64
}

// ValueMode selects how a feature occurrence contributes to the feature
// value.
type ValueMode int

const (
	// WeightSum adds the occurrence weight (the sum of the weights of the
	// tokens it spans). This is the adaptation used to compare baselines
	// with the Kast kernel on weighted strings.
	WeightSum ValueMode = iota
	// Count adds 1 per occurrence — the classical unweighted definition.
	Count
)

// String returns the mode name.
func (m ValueMode) String() string {
	switch m {
	case WeightSum:
		return "weightsum"
	case Count:
		return "count"
	}
	return "unknown"
}

// Normalized wraps a kernel with cosine normalisation:
// k'(a,b) = k(a,b) / sqrt(k(a,a) * k(b,b)), with 0 where either self-value
// is 0. Self-similarity of any non-degenerate string becomes exactly 1.
type Normalized struct {
	K Kernel
}

// Name implements Kernel.
func (n Normalized) Name() string { return n.K.Name() + "+cosine" }

// Compare implements Kernel.
func (n Normalized) Compare(a, b token.String) float64 {
	kab := n.K.Compare(a, b)
	if kab == 0 {
		return 0
	}
	kaa := n.K.Compare(a, a)
	kbb := n.K.Compare(b, b)
	if kaa <= 0 || kbb <= 0 {
		return 0
	}
	return kab / math.Sqrt(kaa*kbb)
}

// featurer is implemented by kernels whose Compare is an inner product of a
// per-string feature map (the baseline kernels in this package); Gram uses
// it to compute each string's map once and reduce every pair to a sparse
// dot product (dotFeatures).
type featurer interface {
	features(x token.String) map[string]float64
}

// dotFeatures computes the sparse inner product of two feature maps,
// iterating over the smaller one. The per-term products are collected and
// sorted before summation: float addition is not associative, so summing in
// map-iteration order would make the result vary run to run. Summing the
// sorted multiset is order-independent (and, ascending, slightly more
// accurate) at O(m log m) on the intersection only.
func dotFeatures(fa, fb map[string]float64) float64 {
	if len(fb) < len(fa) {
		fa, fb = fb, fa
	}
	products := make([]float64, 0, len(fa))
	for k, va := range fa {
		if vb, ok := fb[k]; ok {
			products = append(products, va*vb)
		}
	}
	sort.Float64s(products)
	var s float64
	for _, p := range products {
		s += p
	}
	return s
}
