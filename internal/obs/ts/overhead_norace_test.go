//go:build !race

// The race detector instruments every memory access, which multiplies
// the cost of a nil-receiver call several times over; the per-op bounds
// in this file only hold in a normal build.

package ts

import (
	"testing"
	"time"
)

// nilCollector and nilHub live in package vars so the compiler cannot
// prove them nil and fold the disabled-path loops away.
var (
	nilCollector *Collector
	nilHub       *Hub
)

// bestOf3 returns the fastest of three runs of a timed loop, shedding
// scheduler noise.
func bestOf3(loop func() time.Duration) time.Duration {
	best := loop()
	for i := 0; i < 2; i++ {
		if d := loop(); d < best {
			best = d
		}
	}
	return best
}

// TestDisabledSeamsUnderNoise asserts that an unmounted dashboard costs
// nothing measurable: a sampling tick on a nil collector and a publish
// on a nil hub each stay within 25ns/op, the bound obs holds its own
// disabled counter and span paths to.
func TestDisabledSeamsUnderNoise(t *testing.T) {
	const iters = 5_000_000
	payload := []byte(`[{"k":"epvf_campaign_runs_total","v":1}]`)
	tick := bestOf3(func() time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			nilCollector.Sample(nil, time.Time{})
		}
		return time.Since(start)
	}) / iters
	publish := bestOf3(func() time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			nilHub.Publish(EventMetrics, payload)
		}
		return time.Since(start)
	}) / iters
	t.Logf("nil collector tick %v/op, nil hub publish %v/op", tick, publish)
	if tick > 25*time.Nanosecond {
		t.Errorf("nil collector tick costs %v/op, want <= 25ns", tick)
	}
	if publish > 25*time.Nanosecond {
		t.Errorf("nil hub publish costs %v/op, want <= 25ns", publish)
	}
}
