package obs

import (
	"testing"
	"time"
)

// disabledCounter lives in a package var so the compiler cannot prove it
// nil and fold the instrumented loop away.
var disabledCounter *Counter

var disabledTracer *Tracer

// TestDisabledOverheadUnderNoise asserts that the disabled path — a
// nil-handle Add in a hot loop — costs no more than a few nanoseconds per
// operation, i.e. stays under the noise floor of the interpreter's
// per-instruction cost (tens of ns). The bound is generous
// (25ns/op) so the test never flakes on slow or contended machines while
// still catching an accidental allocation, lock or map lookup on the
// disabled path.
func TestDisabledOverheadUnderNoise(t *testing.T) {
	const iters = 20_000_000
	measure := func() time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			disabledCounter.Add(1)
		}
		return time.Since(start)
	}
	// Warm up once, then take the best of three to shed scheduler noise.
	best := measure()
	for i := 0; i < 2; i++ {
		if d := measure(); d < best {
			best = d
		}
	}
	perOp := best / iters
	t.Logf("disabled counter add: %v/op", perOp)
	if perOp > 25*time.Nanosecond {
		t.Errorf("disabled-path counter add costs %v/op, want <= 25ns", perOp)
	}
}

func BenchmarkDisabledCounterAdd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		disabledCounter.Add(1)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sp := disabledTracer.Start("phase")
		sp.Add("n", 1)
		sp.End()
	}
}

func BenchmarkDisabledRegistryLookup(b *testing.B) {
	var r *Registry
	for i := 0; i < b.N; i++ {
		r.Counter("epvf_interp_runs_total").Inc()
	}
}

func BenchmarkEnabledCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("epvf_bench_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledLookupAndAdd(b *testing.B) {
	r := NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("epvf_bench_total", "outcome", "crash").Inc()
	}
}

func BenchmarkEnabledHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("epvf_bench_seconds", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 1e-4)
	}
}
