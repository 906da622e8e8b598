package kernel

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"iokast/internal/linalg"
	"iokast/internal/token"
)

// Gram computes the kernel (similarity) matrix over the examples. The
// matrix is symmetric by construction; the diagonal holds self-similarities.
//
// Pairs are distributed over GOMAXPROCS workers. For kernels whose value is
// an inner product of per-string feature maps (the baselines in this
// package), feature maps are computed once per string and reused for every
// pair, which turns the quadratic pair loop into cheap sparse dot products.
// Kernels that preprocess strings (the Kast kernel) prepare each string
// once too.
func Gram(k Kernel, xs []token.String) *linalg.Matrix {
	return GramWorkers(k, xs, 0)
}

// preparer is implemented by kernels that preprocess each string once and
// evaluate pairs over the preprocessed forms (core.Kast, whose Compare
// otherwise interns both strings for every pair). PrepareAll returns an
// evaluator of the kernel on strings i and j of xs, equal to
// Compare(xs[i], xs[j]) and safe for concurrent calls.
type preparer interface {
	PrepareAll(xs []token.String) func(i, j int) float64
}

// GramWorkers is Gram with an explicit bound on the number of worker
// goroutines; workers <= 0 means GOMAXPROCS. Services that share the
// process with other work (cmd/iokserve's --workers flag) use it to cap the
// kernel's CPU footprint.
func GramWorkers(k Kernel, xs []token.String, workers int) *linalg.Matrix {
	n := len(xs)
	if f, ok := k.(featurer); ok {
		feats := make([]map[string]float64, n)
		ParallelFor(n, workers, func(i int) { feats[i] = f.features(xs[i]) })
		return SymmetricGram(n, workers, func(i, j int) float64 {
			return dotFeatures(feats[i], feats[j])
		})
	}
	if p, ok := k.(preparer); ok {
		return SymmetricGram(n, workers, p.PrepareAll(xs))
	}
	return SymmetricGram(n, workers, func(i, j int) float64 {
		return k.Compare(xs[i], xs[j])
	})
}

// SymmetricGram fills an n x n symmetric matrix from eval, which must be
// symmetric in its arguments and safe for concurrent calls. Rows fan out
// over ParallelFor with the given worker bound. The fill is race-free:
// every cell (i, j) and its mirror (j, i) are written exactly once, by the
// iteration i = min(i, j), and no cell is read until all iterations
// complete. eval is only ever called with i <= j.
func SymmetricGram(n, workers int, eval func(i, j int) float64) *linalg.Matrix {
	g := linalg.NewMatrix(n, n)
	ParallelFor(n, workers, func(i int) {
		for j := i; j < n; j++ {
			v := eval(i, j)
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	})
	return g
}

// ParallelFor runs fn(i) for i in [0, n) on up to `workers` goroutines
// (workers <= 0 means GOMAXPROCS). fn must be safe to call concurrently for
// distinct i. It is the shared fan-out primitive for Gram computation, the
// incremental engine's ingest and row fan-outs, and the server's batch
// parse, so a single --workers setting bounds them all.
//
// A panic in fn is re-raised on the caller's goroutine, where a deferred
// recover (net/http's, for one) can catch it: the first panicking worker
// stops further indices from being claimed, the others finish the one they
// hold, and once all have returned ParallelFor panics with a *WorkerPanic
// carrying that first value and its worker's stack. With one worker fn
// runs on the caller's goroutine and panics there directly.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Work is claimed from a shared atomic counter rather than dispatched
	// over a channel: one uncontended atomic add (~tens of ns) per item
	// instead of a channel send/receive rendezvous (~hundreds of ns, plus
	// the dispatching goroutine serialising on every handoff). For the
	// engine's query fan-out — thousands of ~microsecond kernel evaluations
	// per request — that dispatch overhead was a measurable slice of the
	// row computation.
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		first atomic.Pointer[WorkerPanic]
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					first.CompareAndSwap(nil, &WorkerPanic{Value: v, Stack: debug.Stack()})
					next.Store(int64(n)) // claim nothing more
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if p := first.Load(); p != nil {
		panic(p)
	}
}

// WorkerPanic is what ParallelFor panics with when fn panicked on one of
// its worker goroutines: the recovered value and that goroutine's stack,
// which the caller's own stack no longer shows.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// Unwrap returns the recovered value when it is an error, so errors.Is and
// errors.As see through the wrapper.
func (p *WorkerPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// NormalizeCosine rescales a Gram matrix so the diagonal becomes 1:
// g'[i][j] = g[i][j] / sqrt(g[i][i] g[j][j]). Rows with non-positive
// self-similarity are zeroed (their diagonal included), since no meaningful
// normalisation exists for them.
func NormalizeCosine(g *linalg.Matrix) *linalg.Matrix {
	n := g.Rows
	out := linalg.NewMatrix(n, n)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = g.At(i, i)
	}
	for i := 0; i < n; i++ {
		if d[i] <= 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if d[j] <= 0 {
				continue
			}
			out.Set(i, j, g.At(i, j)/math.Sqrt(d[i]*d[j]))
		}
	}
	return out
}

// PSDRepair clips negative eigenvalues to zero and rebuilds the matrix —
// the paper's fix for indefinite similarity matrices. It returns the
// repaired matrix and the number of clipped eigenvalues.
func PSDRepair(g *linalg.Matrix) (*linalg.Matrix, int, error) {
	return linalg.ClipNegativeEigenvalues(g)
}

// Center double-centres a Gram matrix in feature space:
// K' = K - 1K - K1 + 1K1 (with 1 = (1/n) ones matrix). Kernel PCA requires
// centred kernels.
func Center(g *linalg.Matrix) *linalg.Matrix {
	n := g.Rows
	out := linalg.NewMatrix(n, n)
	if n == 0 {
		return out
	}
	rowMean := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += g.At(i, j)
		}
		rowMean[i] = s / float64(n)
		total += s
	}
	grand := total / float64(n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Set(i, j, g.At(i, j)-rowMean[i]-rowMean[j]+grand)
		}
	}
	return out
}

// KernelDistance converts a similarity matrix into the kernel-induced
// distance matrix d_ij = sqrt(max(0, k_ii + k_jj - 2 k_ij)). On a PSD
// matrix this is the Euclidean distance in feature space.
func KernelDistance(g *linalg.Matrix) *linalg.Matrix {
	n := g.Rows
	out := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := g.At(i, i) + g.At(j, j) - 2*g.At(i, j)
			if v < 0 {
				v = 0
			}
			out.Set(i, j, math.Sqrt(v))
		}
	}
	return out
}
