package campaign

import (
	"context"
	"testing"

	"repro/internal/fi"
	"repro/internal/interp"
)

// noJitterPlan builds a plan whose runs share one layout, so snapshots
// apply (the default testPlan jitters, which rules them out).
func noJitterPlan(t *testing.T, g *interp.Result, runs, shard int) *Plan {
	t.Helper()
	p, err := NewPlan(g.Trace.Module, g, PlanConfig{
		Benchmark: "kernel",
		Runs:      runs,
		ShardSize: shard,
		FI:        fi.Config{Seed: 41},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scratchResult executes every run of plan on a scratch fi.Runner — one
// that never enabled snapshots — on the given engine: the reference the
// engine's identity tests compare against.
func scratchResult(t *testing.T, g *interp.Result, plan *Plan, engine string) *Result {
	t.Helper()
	cfg := plan.FIConfig()
	cfg.Engine = engine
	r, err := fi.NewRunner(g.Trace.Module, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := make(map[int64]fi.Record, plan.Runs)
	for i, rec := range r.RunRange(0, plan.Runs, 4) {
		records[int64(i)] = rec
	}
	return Assemble(plan, records)
}

// TestEngineSnapshotMatchesScratch: a plan executed by Run, which restores
// snapshots, produces exactly the records, tallies and crash-type
// breakdown of a scratch runner.
func TestEngineSnapshotMatchesScratch(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	plan := noJitterPlan(t, g, 120, 30)
	snap, err := Run(context.Background(), m, g, plan, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Complete {
		t.Fatal("campaign incomplete")
	}
	scratch := scratchResult(t, g, plan, fi.EngineVM)
	if len(snap.Records) != len(scratch.Records) {
		t.Fatalf("records = %d vs %d", len(snap.Records), len(scratch.Records))
	}
	for i := range scratch.Records {
		if snap.Records[i] != scratch.Records[i] {
			t.Fatalf("record %d: snapshot %+v, scratch %+v", i, snap.Records[i], scratch.Records[i])
		}
	}
	for o, c := range scratch.Counts {
		if snap.Counts[o] != c {
			t.Fatalf("count[%s] = %d, want %d", o, snap.Counts[o], c)
		}
	}
	for k, c := range scratch.CrashTypes {
		if snap.CrashTypes[k] != c {
			t.Fatalf("crash[%v] = %d, want %d", k, snap.CrashTypes[k], c)
		}
	}
}

// TestStatusReportsSnapshots: the monitor's status view carries the live
// snapshot section when snapshots ran (TestJitteredPlanSilentlyScratch
// covers its absence).
func TestStatusReportsSnapshots(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	plan := noJitterPlan(t, g, 60, 20)

	mon := NewMonitor(nil)
	if _, err := Run(context.Background(), m, g, plan, RunOptions{Workers: 2, Monitor: mon}); err != nil {
		t.Fatal(err)
	}
	st, err := mon.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == nil {
		t.Fatal("status is missing the snapshot section")
	}
	if !st.Snapshot.Enabled || st.Snapshot.Captures == 0 || st.Snapshot.Restores != 60 {
		t.Fatalf("snapshot view = %+v", st.Snapshot)
	}
}

// TestJitteredPlanSilentlyScratch: the default options on a jittered plan
// must not fail — snapshots are refused internally and the campaign runs
// from scratch.
func TestJitteredPlanSilentlyScratch(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	plan := testPlan(t, g, 40, 20) // jittered
	mon := NewMonitor(nil)
	res, err := Run(context.Background(), m, g, plan, RunOptions{Workers: 2, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("campaign incomplete")
	}
	st, err := mon.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot != nil {
		t.Fatalf("jittered campaign reports snapshots: %+v", st.Snapshot)
	}
}
