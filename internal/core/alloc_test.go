package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"iokast/internal/iogen"
	"iokast/internal/trace"
)

// allocated returns the bytes the Go heap handed out while f ran. The
// count includes every goroutine's allocations, so the tests using it do
// not run in parallel.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// workloadBody concatenates load-generator bodies until they reach size
// bytes: every category's ops, headers and open..close spans, as perfbench
// and iokload send them.
func workloadBody(size int) string {
	var b strings.Builder
	g := iogen.NewBodyGen(7, nil)
	for b.Len() < size {
		body, _ := g.Next()
		b.WriteString(body)
	}
	return b.String()
}

// TestFrontHalfAllocationBounds bounds what parsing and converting one
// request body may allocate, as a multiple of the body's size. Request
// bodies reach 16 MiB (POST /traces) and 64 MiB (POST /traces/batch), so
// allocation in proportion to the body, not just the body size, is what
// a hostile or merely large request can make the server pay. The bounds
// are counts: they hold on any host and under -race.
func TestFrontHalfAllocationBounds(t *testing.T) {
	const size = 4 << 20
	t.Run("workload", func(t *testing.T) {
		body := workloadBody(size)
		var ops int
		n := allocated(func() {
			tr, err := trace.ParseString(body)
			if err != nil {
				t.Fatal(err)
			}
			ops = len(tr.Ops)
			Convert(tr, Options{})
		})
		perByte := float64(n) / float64(len(body))
		t.Logf("%d bytes, %d ops: parse+convert allocated %d bytes, %.1f per input byte", len(body), ops, n, perByte)
		if perByte > 24 {
			t.Fatalf("parse+convert allocated %.1f bytes per input byte, want at most 24", perByte)
		}
	})
	// The byte-ignoring variant reads byte counts as zero while it builds
	// the tree: it allocates no more than the default conversion of the
	// same trace, and leaves the caller's trace as it was.
	t.Run("nobytes", func(t *testing.T) {
		tr, err := trace.ParseString(workloadBody(size))
		if err != nil {
			t.Fatal(err)
		}
		before := tr.Clone()
		plain := allocated(func() { Convert(tr, Options{}) })
		nobytes := allocated(func() { Convert(tr, Options{IgnoreBytes: true}) })
		t.Logf("%d ops: convert allocated %d bytes, %d with IgnoreBytes", len(tr.Ops), plain, nobytes)
		if nobytes > plain {
			t.Fatalf("IgnoreBytes conversion allocated %d bytes, more than the %d of Options{}", nobytes, plain)
		}
		if !reflect.DeepEqual(tr, before) {
			t.Fatal("IgnoreBytes conversion modified the caller's trace")
		}
	})
	// Bodies that hold no op allocate next to nothing, whatever their size:
	// nothing may be sized from the input before a line has parsed.
	for _, c := range []struct {
		name, line string
		wantErr    bool
	}{
		{"bad-first-line", "x\n", true},
		{"comments-only", "# a comment line\n", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := strings.Repeat(c.line, 4*size/len(c.line))
			n := allocated(func() {
				if _, err := trace.ParseString(body); (err != nil) != c.wantErr {
					t.Errorf("ParseString error = %v, want error %v", err, c.wantErr)
				}
			})
			t.Logf("%d-byte body: parse allocated %d bytes", len(body), n)
			if n >= 1<<20 {
				t.Fatalf("parse of a %d-byte body allocated %d bytes, want under 1 MiB", len(body), n)
			}
		})
	}
}
