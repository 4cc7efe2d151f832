package fi

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/snapshot"
)

const snapKernelSrc = `
void main() {
  long *a = malloc(64 * 8);
  int i;
  for (i = 0; i < 64; i = i + 1) { a[i] = i * 5; }
  long s = 0;
  int r;
  for (r = 0; r < 6; r = r + 1) {
    for (i = 0; i < 64; i = i + 1) {
      s = s + a[i] * (r + 1);
      a[i] = a[i] ^ (s & 255);
    }
  }
  output(s);
  output(a[17]);
  free(a);
}
`

// TestSnapshotCampaignMatchesScratch is the campaign-level bit-identity
// contract: a campaign, which restores snapshots, returns exactly the
// records and tallies of a scratch runner (one that never enabled them).
func TestSnapshotCampaignMatchesScratch(t *testing.T) {
	g := golden(t, snapKernelSrc)
	m := g.Trace.Module
	cfg := Config{Seed: 11}
	snap := runCampaign(t, m, g, cfg, 150, 4)
	r, err := NewRunner(m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scratch := tallyOf(r.RunRange(0, 150, 4))
	if len(snap.Records) != len(scratch.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(snap.Records), len(scratch.Records))
	}
	for i := range scratch.Records {
		if snap.Records[i] != scratch.Records[i] {
			t.Fatalf("record %d: snapshot %+v, scratch %+v", i, snap.Records[i], scratch.Records[i])
		}
	}
	for o, c := range scratch.Counts {
		if snap.Counts[o] != c {
			t.Fatalf("count[%s] = %d, scratch %d", o, snap.Counts[o], c)
		}
	}
}

// TestSnapshotSpeedupInEvents asserts the speedup deterministically in
// event counts rather than wall time: the events a scratch campaign would
// execute must be at least 3x the events the snapshot campaign executed
// (replayed deltas plus the one shared golden execution, bounded above by
// the full trace).
func TestSnapshotSpeedupInEvents(t *testing.T) {
	g := golden(t, snapKernelSrc)
	m := g.Trace.Module
	r, err := NewRunner(m, g, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r.EnableSnapshots(snapshot.Config{}); err != nil || !ok {
		t.Fatalf("EnableSnapshots = %v, %v", ok, err)
	}
	r.RunRange(0, 150, 4)
	v := r.SnapshotView()
	if v == nil || v.Restores != 150 {
		t.Fatalf("view = %+v", v)
	}
	scratchEvents := v.ReplayedEvents + v.SkippedEvents
	snapEvents := v.ReplayedEvents + g.DynInstrs // golden replay upper bound
	if scratchEvents < 3*snapEvents {
		t.Fatalf("snapshot speedup %.2fx in events (scratch %d, snapshot <= %d), want >= 3x",
			float64(scratchEvents)/float64(snapEvents), scratchEvents, snapEvents)
	}
	t.Logf("event speedup: %.1fx (replayed %d, skipped %d, converged %d/%d)",
		float64(scratchEvents)/float64(snapEvents), v.ReplayedEvents, v.SkippedEvents, v.Converged, v.Restores)
}

// TestSnapshotsRefusedUnderJitter: per-run layout jitter draws a fresh
// address space per run, so a golden-layout snapshot cannot seed it;
// EnableSnapshots must decline and a campaign must fall back to scratch.
func TestSnapshotsRefusedUnderJitter(t *testing.T) {
	g := golden(t, snapKernelSrc)
	m := g.Trace.Module
	r, err := NewRunner(m, g, Config{Seed: 1, JitterWindow: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := r.EnableSnapshots(snapshot.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ok || r.SnapshotsEnabled() || r.SnapshotView() != nil {
		t.Fatal("snapshots must be refused under layout jitter")
	}
	// The default-on campaign path must silently run scratch.
	res := runCampaign(t, m, g, Config{Seed: 1, JitterWindow: 1 << 20}, 10, 1)
	if len(res.Records) != 10 {
		t.Fatalf("records = %d", len(res.Records))
	}
}

// TestWalkerRunnerDeclinesSnapshots: snapshots are captured and resumed
// on the VM, so a walker runner has none to restore and runs from
// scratch.
func TestWalkerRunnerDeclinesSnapshots(t *testing.T) {
	g := golden(t, snapKernelSrc)
	r, err := NewRunner(g.Trace.Module, g, Config{Seed: 1, Engine: EngineWalker})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r.EnableSnapshots(snapshot.Config{}); ok || err != nil {
		t.Fatalf("EnableSnapshots = %v, %v, want false, nil", ok, err)
	}
	if r.SnapshotsEnabled() || r.SnapshotView() != nil {
		t.Fatal("walker runner reports snapshots")
	}
}

// TestSnapshotParallelDeterministic: records are identical across worker
// counts and dispatch orders even though the chain extends lazily under
// contention.
func TestSnapshotParallelDeterministic(t *testing.T) {
	g := golden(t, snapKernelSrc)
	m := g.Trace.Module
	var base []Record
	for _, workers := range []int{1, 4} {
		r, err := NewRunner(m, g, Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.EnableSnapshots(snapshot.Config{}); err != nil {
			t.Fatal(err)
		}
		recs := r.RunRange(0, 80, workers)
		if base == nil {
			base = recs
			continue
		}
		for i := range base {
			if recs[i] != base[i] {
				t.Fatalf("workers=%d record %d = %+v, want %+v", workers, i, recs[i], base[i])
			}
		}
	}
}

// engineEvents sums the events a runner's engines executed.
func engineEvents(r *Runner) int64 {
	var n int64
	for _, s := range r.EngineStats() {
		n += s.Events
	}
	return n
}

// TestSnapshotsHalveLuleshEvents pins the snapshot saving on
// deterministic counters instead of wall time: on lulesh at jitter 0, a
// runner restoring snapshots returns a scratch runner's records while its
// engines execute at most half the scratch runner's events, counting the
// chain's own golden execution against it (about 0.2 is typical).
func TestSnapshotsHalveLuleshEvents(t *testing.T) {
	const runs = 256
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
	cfg := Config{Seed: 2016}
	scratch, err := NewRunner(m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewRunner(m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := snap.EnableSnapshots(snapshot.Config{}); err != nil || !ok {
		t.Fatalf("EnableSnapshots = %v, %v", ok, err)
	}
	want := scratch.RunRange(0, runs, 2)
	got := snap.RunRange(0, runs, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: snapshot %+v, scratch %+v", i, got[i], want[i])
		}
	}
	scratchEvents := engineEvents(scratch)
	snapEvents := engineEvents(snap) + g.DynInstrs // the chain replays at most the golden run
	ratio := float64(snapEvents) / float64(scratchEvents)
	t.Logf("snapshot runner executed %d events, scratch %d: %.2f", snapEvents, scratchEvents, ratio)
	if ratio > 0.5 {
		t.Errorf("snapshot runner executed %.2f of the scratch runner's events, want <= 0.5", ratio)
	}
}
