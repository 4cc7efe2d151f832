package campaign

import (
	"context"
	"testing"

	"repro/internal/fi"
)

// TestEngineVMMatchesWalker: the same plan executed by Run on the bytecode
// VM and on the frame-stack walker produces the records and per-shard
// merge hashes of a scratch walker runner — the cross-layer contract that
// lets VM and walker workers serve one distributed campaign
// interchangeably.
func TestEngineVMMatchesWalker(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	plan := noJitterPlan(t, g, 120, 30)

	variants := map[string]RunOptions{
		"vm":      {Workers: 4, Engine: fi.EngineVM},
		"walker":  {Workers: 4, Engine: fi.EngineWalker},
		"default": {Workers: 4},
	}
	ref := scratchResult(t, g, plan, fi.EngineWalker).Records
	for name, opts := range variants {
		res, err := Run(context.Background(), m, g, plan, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Complete {
			t.Fatalf("%s: incomplete", name)
		}
		if len(res.Records) != len(ref) {
			t.Fatalf("%s: %d records, want %d", name, len(res.Records), len(ref))
		}
		for i := range ref {
			if res.Records[i] != ref[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", name, i, res.Records[i], ref[i])
			}
		}
		// The shard merge hash is the coordinator's idempotency token:
		// engines must agree on it or mixed fleets would conflict.
		for s := 0; s < plan.NumShards(); s++ {
			lo, hi := plan.ShardRange(s)
			mk := func(recs []fi.Record) []RunRec {
				out := make([]RunRec, 0, hi-lo)
				for i := lo; i < hi; i++ {
					out = append(out, NewRunRec(i, recs[i]))
				}
				return out
			}
			if got, want := ShardHash(plan.ID, s, mk(res.Records)), ShardHash(plan.ID, s, mk(ref)); got != want {
				t.Fatalf("%s: shard %d hash %s, want %s", name, s, got, want)
			}
		}
	}
}

// TestStatusReportsEngines: the live status view carries the per-engine
// throughput split, attributing runs to the engine that executed them.
func TestStatusReportsEngines(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	plan := noJitterPlan(t, g, 60, 20)

	for _, engine := range []string{fi.EngineVM, fi.EngineWalker} {
		mon := NewMonitor(nil)
		if _, err := Run(context.Background(), m, g, plan, RunOptions{Workers: 2, Monitor: mon, Engine: engine}); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		st, err := mon.Status()
		if err != nil {
			t.Fatalf("%s: status: %v", engine, err)
		}
		if len(st.Engines) != 1 || st.Engines[0].Engine != engine {
			t.Fatalf("engine %s: status engines = %+v", engine, st.Engines)
		}
		es := st.Engines[0]
		if es.Runs != plan.Runs || es.Events <= 0 || es.EventsPerSec <= 0 {
			t.Fatalf("engine %s: implausible stats %+v", engine, es)
		}
	}
}

// TestUnknownEngineRejected: a typo'd engine name fails fast instead of
// silently running on a default.
func TestUnknownEngineRejected(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	plan := noJitterPlan(t, g, 20, 10)
	if _, err := Run(context.Background(), m, g, plan, RunOptions{Engine: "jit"}); err == nil {
		t.Fatal("want error for unknown engine name")
	}
}
