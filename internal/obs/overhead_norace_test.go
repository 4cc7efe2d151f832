//go:build !race

package obs

import (
	"testing"
	"time"
)

// The race detector instruments every memory access, which multiplies
// the cost of a nil-receiver call several times over; the per-op bounds
// in this file only hold in a normal build.

// TestDisabledSpanUnderNoise holds the disabled span path — Start, Add
// and End on a nil tracer, the shape every analysis phase pays when
// tracing is off — to TestDisabledOverheadUnderNoise's 25ns/op bound,
// with the same best-of-three loop.
func TestDisabledSpanUnderNoise(t *testing.T) {
	const iters = 5_000_000
	measure := func() time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			sp := disabledTracer.Start("phase")
			sp.Add("n", 1)
			sp.End()
		}
		return time.Since(start)
	}
	best := measure()
	for i := 0; i < 2; i++ {
		if d := measure(); d < best {
			best = d
		}
	}
	perOp := best / iters
	t.Logf("disabled span start/add/end: %v/op", perOp)
	if perOp > 25*time.Nanosecond {
		t.Errorf("disabled span path costs %v/op, want <= 25ns", perOp)
	}
}
