//go:build !race

package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/attr"
	"repro/internal/bench"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/obs"
)

// TestCampaignAllocsPerInjection gates what a campaign allocates per
// injection, a deterministic counter where wall time is not: a 1024-run
// lulesh campaign at jitter 0 (so runs restore snapshots) through Run,
// with a log, a ledger and a monitor on two workers, must stay within 19
// allocations and 9 KB per injection (17.3 and 8.1 KB measured, with
// machines, frames and pages recycled between runs). The size is the
// benchmark's: a campaign also pays per-campaign costs (the golden
// snapshot chain captures about 300 states), which a 128-run campaign
// would spread over too few injections to gate the per-run path. The
// first campaign warms the pools, and prints the module for the plan ID
// check, and is not counted.
func TestCampaignAllocsPerInjection(t *testing.T) {
	const (
		runs         = 1024
		maxAllocs    = 19
		maxBytes     = 9 << 10
		measuredRuns = 2
	)
	b, _ := bench.Get("lulesh")
	m := b.MustModule(1)
	g, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(m, g, PlanConfig{Benchmark: "lulesh", Runs: runs, FI: fi.Config{Seed: 2016}})
	if err != nil {
		t.Fatal(err)
	}
	cls := attr.NewClassifier(epvf.AnalyzeTrace(g.Trace, epvf.Config{}))
	dir := t.TempDir()
	campaign := func(k int) {
		mon := NewMonitor(obs.NewRegistry())
		res, err := Run(context.Background(), m, g, plan, RunOptions{
			LogPath: filepath.Join(dir, fmt.Sprintf("log%d.jsonl", k)),
			Workers: 2,
			Monitor: mon,
			Ledger:  attr.NewLedger(cls),
		})
		if err != nil || !res.Complete {
			t.Fatalf("campaign %d: %v", k, err)
		}
		st, err := mon.Status()
		if err != nil || st.Snapshot == nil || st.Snapshot.Restores != runs {
			t.Fatalf("campaign %d: want %d snapshot restores, status %+v, %v", k, runs, st, err)
		}
	}
	campaign(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= measuredRuns; k++ {
		campaign(k)
	}
	runtime.ReadMemStats(&after)
	n := float64(measuredRuns * runs)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f allocations, %.1f KB per injection", allocs, bytes/1024)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("%.1f allocations and %.1f KB per injection, want <= %d and <= %d KB",
			allocs, bytes/1024, maxAllocs, maxBytes>>10)
	}
}
