//go:build !race

// The race detector slows the two engines by different factors, so the
// throughput floor in this file only holds in a normal build.

package fi

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
)

// TestVMAtLeastTwiceWalker is the VM's throughput floor: the same
// lulesh campaign runs on the walker and on the bytecode VM, alternating
// engines over three rounds. Every round's records must be identical,
// and the VM's best events/sec must be at least twice the walker's best.
// Both runners execute from scratch (only the VM can restore snapshots),
// so the figure is engine dispatch: 2.8-4.0x on a loaded 2-core machine.
func TestVMAtLeastTwiceWalker(t *testing.T) {
	const runs, rounds = 60, 3
	b, ok := bench.Get("lulesh")
	if !ok {
		t.Fatal("lulesh benchmark missing")
	}
	m, err := b.Module(1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	var ref []Record
	best := map[string]float64{}
	for round := 0; round < rounds; round++ {
		for _, engine := range []string{EngineWalker, EngineVM} {
			r, err := NewRunner(m, g, Config{Seed: 2016, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			// A clean heap per round: one engine's garbage is not
			// collected on the other's clock.
			runtime.GC()
			recs := r.RunRange(0, runs, 1)
			if ref == nil {
				ref = recs
			}
			for i := range ref {
				if recs[i] != ref[i] {
					t.Fatalf("round %d %s: record %d is %+v, want %+v", round, engine, i, recs[i], ref[i])
				}
			}
			stats := r.EngineStats()
			if len(stats) != 1 || stats[0].Engine != engine {
				t.Fatalf("round %d %s: engine stats %+v", round, engine, stats)
			}
			if eps := stats[0].EventsPerSec; eps > best[engine] {
				best[engine] = eps
			}
		}
	}
	speedup := best[EngineVM] / best[EngineWalker]
	t.Logf("walker %.0f ev/s, vm %.0f ev/s: %.2fx", best[EngineWalker], best[EngineVM], speedup)
	if speedup < 2 {
		t.Errorf("VM runs %.2fx the walker's events/sec, want >= 2x", speedup)
	}
}
