//go:build !race

// The race detector's sync.Pool drops pooled items at random, so Draw's
// generators are rebuilt and the count below is meaningful only in a
// normal build.

package fi

import (
	"testing"

	"repro/internal/mem"
)

// TestDrawAllocatesNothing checks that a draw allocates nothing once the
// generator pool is warm: seeding is O(1) in place, and a multi-bit mask
// shuffles on the stack.
func TestDrawAllocatesNothing(t *testing.T) {
	g := golden(t, kernelSrc)
	for _, jitter := range []uint64{0, 64 * mem.PageSize} {
		for _, bits := range []int{1, 8, 64} {
			r, err := NewRunner(g.Trace.Module, g, Config{Seed: 2016, JitterWindow: jitter, FaultBits: bits, Engine: EngineWalker})
			if err != nil {
				t.Fatal(err)
			}
			i := int64(0)
			if allocs := testing.AllocsPerRun(500, func() {
				r.Draw(i)
				i++
			}); allocs != 0 {
				t.Fatalf("jitter %d, bits %d: Draw allocates %.2f times per call, want 0", jitter, bits, allocs)
			}
		}
	}
}
