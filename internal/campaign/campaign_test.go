package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/obs"
)

// kernelSrc is a small kernel with a healthy mix of crash, SDC and benign
// outcomes under injection.
const kernelSrc = `
void main() {
  long *a = malloc(40 * 8);
  int i;
  for (i = 0; i < 40; i = i + 1) { a[i] = i * 5; }
  long s = 0;
  for (i = 0; i < 40; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}
`

func golden(t testing.TB, src string) *interp.Result {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Exception != nil || res.Hang {
		t.Fatalf("abnormal golden run: exc=%v hang=%v", res.Exception, res.Hang)
	}
	return res
}

func testPlan(t testing.TB, g *interp.Result, runs, shard int) *Plan {
	t.Helper()
	p, err := NewPlan(g.Trace.Module, g, PlanConfig{
		Benchmark: "kernel",
		Runs:      runs,
		ShardSize: shard,
		FI:        fi.Config{Seed: 41, JitterWindow: 16 * mem.PageSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanHashStableAndSensitive(t *testing.T) {
	g := golden(t, kernelSrc)
	p1 := testPlan(t, g, 100, 25)
	p2 := testPlan(t, g, 100, 25)
	if p1.ID != p2.ID {
		t.Errorf("identical inputs produced different plan IDs: %s vs %s", p1.ID, p2.ID)
	}
	p3, err := NewPlan(g.Trace.Module, g, PlanConfig{
		Benchmark: "kernel", Runs: 100, ShardSize: 25,
		FI: fi.Config{Seed: 42, JitterWindow: 16 * mem.PageSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p3.ID == p1.ID {
		t.Error("changing the seed did not change the plan ID")
	}
	// A different module must hash differently.
	g2 := golden(t, `void main() { int x = 3; int y = x * x; output(y); }`)
	p4, err := NewPlan(g2.Trace.Module, g2, PlanConfig{
		Benchmark: "kernel", Runs: 100, ShardSize: 25,
		FI: fi.Config{Seed: 41, JitterWindow: 16 * mem.PageSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p4.ID == p1.ID {
		t.Error("different modules share a plan ID")
	}
	// The benchmark label is cosmetic.
	p5, err := NewPlan(g.Trace.Module, g, PlanConfig{
		Benchmark: "renamed", Runs: 100, ShardSize: 25,
		FI: fi.Config{Seed: 41, JitterWindow: 16 * mem.PageSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p5.ID != p1.ID {
		t.Error("renaming the benchmark invalidated the plan ID")
	}
}

func TestShardGeometry(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 90, 25)
	if p.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", p.NumShards())
	}
	covered := int64(0)
	for i := 0; i < p.NumShards(); i++ {
		lo, hi := p.ShardRange(i)
		if lo != covered {
			t.Errorf("shard %d starts at %d, want %d", i, lo, covered)
		}
		covered = hi
	}
	if covered != 90 {
		t.Errorf("shards cover %d runs, want 90", covered)
	}
}

func TestRateAndShares(t *testing.T) {
	r := &Result{
		Records:    make([]fi.Record, 10),
		Counts:     map[fi.Outcome]int{fi.OutcomeCrash: 4, fi.OutcomeSDC: 1, fi.OutcomeBenign: 5},
		CrashTypes: map[interp.ExcKind]int{interp.ExcSegFault: 3, interp.ExcArith: 1},
	}
	if r.Rate(fi.OutcomeCrash) != 0.4 {
		t.Error("Rate wrong")
	}
	if r.ExcTypeShare(interp.ExcSegFault) != 0.75 {
		t.Error("ExcTypeShare wrong")
	}
	empty := &Result{Counts: map[fi.Outcome]int{}, CrashTypes: map[interp.ExcKind]int{}}
	if empty.Rate(fi.OutcomeCrash) != 0 || empty.ExcTypeShare(interp.ExcSegFault) != 0 {
		t.Error("empty result rates must be zero")
	}
}

func TestInterruptedCampaignResumesBitwiseIdentical(t *testing.T) {
	// Acceptance criterion: interrupt after N records (budgeted
	// invocation), resume from the JSONL log, and compare against an
	// uninterrupted run of the same plan: final records and counts must
	// be bitwise identical.
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 120, 30)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "campaign.jsonl")

	first, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath, Workers: 3, Budget: 47})
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != 47 {
		t.Fatalf("budgeted invocation executed %d runs, want 47", first.Executed)
	}
	if first.Complete {
		t.Fatal("interrupted campaign claims completion")
	}
	st, err := ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done() != 47 {
		t.Fatalf("log holds %d runs after interruption, want 47", st.Done())
	}

	resumed, err := Resume(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath, Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Replayed != 47 || resumed.Executed != 120-47 {
		t.Fatalf("resume replayed %d / executed %d, want 47 / 73", resumed.Replayed, resumed.Executed)
	}
	uninterrupted, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Records) != len(uninterrupted.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(resumed.Records), len(uninterrupted.Records))
	}
	for i := range resumed.Records {
		if resumed.Records[i] != uninterrupted.Records[i] {
			t.Fatalf("record %d differs between resumed and uninterrupted campaigns", i)
		}
	}
	for o, c := range uninterrupted.Counts {
		if resumed.Counts[o] != c {
			t.Errorf("outcome %v: resumed count %d != uninterrupted %d", o, resumed.Counts[o], c)
		}
	}
}

func TestResumeRefusesMissingLog(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 10, 5)
	if _, err := Resume(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: filepath.Join(t.TempDir(), "absent.jsonl")}); err == nil {
		t.Error("resume from a missing log must fail")
	}
	if _, err := Resume(context.Background(), g.Trace.Module, g, p, RunOptions{}); err == nil {
		t.Error("resume without a log path must fail")
	}
}

func TestResumeDetectsPlanMismatch(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 40, 20)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "campaign.jsonl")
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath, Budget: 5}); err != nil {
		t.Fatal(err)
	}
	other := testPlan(t, g, 40, 20)
	other.Seed = 999 // tamper: same ID claim, different config
	if _, err := Run(context.Background(), g.Trace.Module, g, other, RunOptions{LogPath: logPath}); err == nil {
		t.Error("tampered plan must be rejected against the module hash")
	}
}

func TestTornTailTolerated(t *testing.T) {
	// A crash mid-append leaves a partial final line; replay must ignore
	// it and resume must re-execute that run.
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 30, 10)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "campaign.jsonl")
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath, Budget: 12}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through its final line.
	torn := data[:len(data)-7]
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Records {
		if resumed.Records[i] != full.Records[i] {
			t.Fatalf("record %d differs after torn-tail resume", i)
		}
	}
}

func TestAdaptiveStoppingSavesRuns(t *testing.T) {
	// Acceptance criterion: with ε wide enough to converge well before
	// the planned run count, the adaptive campaign must execute >= 30%
	// fewer runs while its rate estimates stay within ε of the full
	// campaign's.
	g := golden(t, kernelSrc)
	const total = 2400
	p := testPlan(t, g, total, 100)
	eps := 0.05
	adaptive, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{Workers: 8, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if !adaptive.Stopped {
		t.Fatalf("adaptive campaign did not stop early (%d runs)", len(adaptive.Records))
	}
	used := len(adaptive.Records)
	if float64(used) > 0.7*total {
		t.Fatalf("adaptive campaign used %d/%d runs; want >= 30%% savings", used, total)
	}
	if adaptive.Saved != int64(total-used) {
		t.Errorf("Saved = %d, want %d", adaptive.Saved, total-used)
	}
	full, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []fi.Outcome{fi.OutcomeCrash, fi.OutcomeSDC} {
		d := adaptive.Rate(o) - full.Rate(o)
		if d < 0 {
			d = -d
		}
		if d > eps {
			t.Errorf("outcome %v: adaptive estimate %.4f deviates from full %.4f by more than ε=%.2f",
				o, adaptive.Rate(o), full.Rate(o), eps)
		}
	}
}

func TestAdaptiveStopDeterministicAcrossResume(t *testing.T) {
	// The stop boundary must not depend on interruption: a budgeted run +
	// resume must stop at the same prefix as a straight-through run.
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 1200, 100)
	straight, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{Workers: 4, Epsilon: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	if !straight.Stopped {
		t.Skip("kernel did not converge at this ε; determinism check not applicable")
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "c.jsonl")
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath, Workers: 2, Epsilon: 0.06, Budget: 130}); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath, Workers: 7, Epsilon: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Records) != len(straight.Records) {
		t.Fatalf("stop boundary moved: %d vs %d runs", len(resumed.Records), len(straight.Records))
	}
	for i := range straight.Records {
		if resumed.Records[i] != straight.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestShardedProcessesMerge(t *testing.T) {
	// Two "processes" run disjoint shard sets into separate logs; merge
	// combines them into a complete campaign equal to a monolithic run.
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 100, 20)
	dir := t.TempDir()
	logA := filepath.Join(dir, "a.jsonl")
	logB := filepath.Join(dir, "b.jsonl")
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logA, Shards: []int{0, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logB, Shards: []int{1, 3}, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	st, err := MergeLogs(merged, []string{logA, logB})
	if err != nil {
		t.Fatal(err)
	}
	if st.Done() != 100 || len(st.CompleteShards()) != 5 {
		t.Fatalf("merged status: %d runs, %d shards complete", st.Done(), len(st.CompleteShards()))
	}
	// Resuming the merged log needs zero additional work and agrees with
	// a monolithic campaign.
	resumed, err := Resume(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: merged})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Executed != 0 {
		t.Errorf("merged campaign executed %d extra runs", resumed.Executed)
	}
	mono, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mono.Records {
		if resumed.Records[i] != mono.Records[i] {
			t.Fatalf("record %d differs between merged-shard and monolithic campaigns", i)
		}
	}
}

func TestCancelledRunCheckpointsAndResumes(t *testing.T) {
	// Cancelling the context mid-campaign must stop at a clean boundary,
	// leave a durable resumable log, and report Interrupted rather than an
	// error; resuming converges on the uninterrupted result.
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 120, 20)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "c.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	mon := NewMonitor(nil)
	// Cancel from inside the run via the progress writer: the first
	// progress print happens after runs have started.
	mon.SetClock(time.Now)
	w := writerFunc(func(p []byte) (int, error) {
		once.Do(cancel)
		return len(p), nil
	})
	first, err := Run(ctx, g.Trace.Module, g, p, RunOptions{LogPath: logPath, Workers: 2, Progress: w, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Interrupted {
		// The campaign may have finished before the first progress tick on
		// a fast machine; cancel deterministically instead.
		ctx2, cancel2 := context.WithCancel(context.Background())
		cancel2()
		logPath = filepath.Join(dir, "c2.jsonl")
		first, err = Run(ctx2, g.Trace.Module, g, p, RunOptions{LogPath: logPath, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !first.Interrupted {
			t.Fatal("pre-cancelled context did not interrupt the run")
		}
		if first.Executed != 0 {
			t.Fatalf("pre-cancelled run executed %d runs", first.Executed)
		}
	}
	if first.Complete {
		t.Fatal("interrupted campaign claims completion")
	}
	resumed, err := Resume(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Interrupted || !resumed.Complete {
		t.Fatalf("resume after cancellation: interrupted=%v complete=%v", resumed.Interrupted, resumed.Complete)
	}
	mono, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Records) != len(mono.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(resumed.Records), len(mono.Records))
	}
	for i := range mono.Records {
		if resumed.Records[i] != mono.Records[i] {
			t.Fatalf("record %d differs after cancel+resume", i)
		}
	}
}

// writerFunc adapts a function to io.Writer for test hooks.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestMergeDedupesDuplicateShards(t *testing.T) {
	// Overlapping logs (the at-least-once delivery shape) must merge to the
	// same result as disjoint ones: shard 1 appears in both inputs.
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 100, 20)
	dir := t.TempDir()
	logA := filepath.Join(dir, "a.jsonl")
	logB := filepath.Join(dir, "b.jsonl")
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logA, Shards: []int{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logB, Shards: []int{1, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "m.jsonl")
	st, err := MergeLogs(merged, []string{logA, logB})
	if err != nil {
		t.Fatal(err)
	}
	if st.Done() != 100 || len(st.CompleteShards()) != 5 {
		t.Fatalf("overlapping merge double-counted: %d runs, %d shards", st.Done(), len(st.CompleteShards()))
	}
	for o, c := range st.counts() {
		if c < 0 || int64(c) > st.Done() {
			t.Fatalf("outcome %v count %d out of range", o, c)
		}
	}
}

// TestMergeReplacesOut: merging into an existing log, or into one of the
// merge's own inputs, replaces that file with the merge instead of
// appending a second header to it. Either way the result reads back
// holding the union of the inputs' records.
func TestMergeReplacesOut(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 100, 20)
	dir := t.TempDir()
	logA := filepath.Join(dir, "a.jsonl")
	logB := filepath.Join(dir, "b.jsonl")
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logA, Shards: []int{0, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logB, Shards: []int{1, 3}}); err != nil {
		t.Fatal(err)
	}
	mono, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	holdsUnion := func(path string) {
		t.Helper()
		rp, err := ReadLog(path)
		if err != nil {
			t.Fatalf("reading %s back: %v", filepath.Base(path), err)
		}
		if len(rp.Records) != len(mono.Records) {
			t.Fatalf("%s holds %d records, want %d", filepath.Base(path), len(rp.Records), len(mono.Records))
		}
		for i, rec := range mono.Records {
			if rp.Records[int64(i)] != rec {
				t.Fatalf("%s: record %d = %+v, want %+v", filepath.Base(path), i, rp.Records[int64(i)], rec)
			}
		}
	}
	merged := filepath.Join(dir, "merged.jsonl")
	for range 2 {
		if _, err := MergeLogs(merged, []string{logA, logB}); err != nil {
			t.Fatal(err)
		}
		holdsUnion(merged)
	}
	if _, err := MergeLogs(logB, []string{logA, logB}); err != nil {
		t.Fatal(err)
	}
	holdsUnion(logB)
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 3 {
		t.Errorf("merges left %d files behind (%v), want a, b and merged", len(entries), err)
	}
}

func TestMergeRejectsConflictingDuplicates(t *testing.T) {
	// Two logs claiming the same run index with different content must be
	// rejected: identical plans cannot legitimately disagree.
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 40, 20)
	dir := t.TempDir()
	logA := filepath.Join(dir, "a.jsonl")
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logA}); err != nil {
		t.Fatal(err)
	}
	// Forge log B: same plan header, tampered record for run 0.
	data, err := os.ReadFile(logA)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 3)
	forged := lines[0] + "\n" + `{"kind":"run","index":0,"event":1,"bit":1,"mask":2,"outcome":1,"exc":0}` + "\n"
	logB := filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(logB, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeLogs(filepath.Join(dir, "m.jsonl"), []string{logA, logB}); err == nil {
		t.Fatal("merge accepted conflicting duplicate records")
	} else if !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("unexpected merge error: %v", err)
	}
}

func TestShardHashStableAndOrderInsensitive(t *testing.T) {
	recs := []RunRec{
		{Index: 3, Event: 9, Bit: 4, Mask: 16, Outcome: 1},
		{Index: 1, Event: 2, Bit: 0, Mask: 1, Outcome: 0},
		{Index: 2, Event: 5, Bit: 7, Mask: 128, Outcome: 2, Exc: 1},
	}
	shuffled := []RunRec{recs[2], recs[0], recs[1]}
	if ShardHash("p", 0, recs) != ShardHash("p", 0, shuffled) {
		t.Error("shard hash depends on delivery order")
	}
	if ShardHash("p", 0, recs) == ShardHash("p", 1, recs) {
		t.Error("shard hash ignores the shard index")
	}
	if ShardHash("p", 0, recs) == ShardHash("q", 0, recs) {
		t.Error("shard hash ignores the plan ID")
	}
	mut := make([]RunRec, len(recs))
	copy(mut, recs)
	mut[1].Outcome = 2
	if ShardHash("p", 0, recs) == ShardHash("p", 0, mut) {
		t.Error("shard hash ignores record content")
	}
}

func TestStatusAndResultRender(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 60, 30)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "c.jsonl")
	var buf strings.Builder
	res, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath, Progress: &buf})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "crash") || !strings.Contains(out, p.ID) {
		t.Errorf("result render missing fields:\n%s", out)
	}
	if !strings.Contains(buf.String(), "executed") {
		t.Errorf("progress writer saw no summary: %q", buf.String())
	}
	st, err := ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	sr := st.Render()
	if !strings.Contains(sr, "runs logged") || !strings.Contains(sr, "60/60") {
		t.Errorf("status render missing fields:\n%s", sr)
	}
}

// TestOutOfRangeShardHasNoSideEffects checks that Run validates
// RunOptions.Shards before it touches anything: no log file appears and
// the active gauge the stall alert watches stays at 0.
func TestOutOfRangeShardHasNoSideEffects(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 100, 20)
	logPath := filepath.Join(t.TempDir(), "x.jsonl")
	reg := obs.NewRegistry()
	_, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{
		LogPath: logPath, Shards: []int{1, 99}, Monitor: NewMonitor(reg),
	})
	if err == nil || !strings.Contains(err.Error(), "shard 99 out of range") {
		t.Fatalf("err = %v, want shard 99 out of range", err)
	}
	if _, statErr := os.Stat(logPath); !os.IsNotExist(statErr) {
		t.Errorf("rejected campaign left a log behind (stat: %v)", statErr)
	}
	if v := reg.Snapshot().Gauge("epvf_campaign_active"); v != 0 {
		t.Errorf("epvf_campaign_active = %v after the error, want 0", v)
	}
}

// TestNewPlanCompilesNothing checks that planning counts the bit
// population without compiling the module to bytecode.
func TestNewPlanCompilesNothing(t *testing.T) {
	g := golden(t, kernelSrc)
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	p := testPlan(t, g, 100, 20)
	if n := reg.Snapshot().Counter("epvf_vm_compiles_total"); n != 0 {
		t.Errorf("NewPlan compiled the module %d times, want 0", n)
	}
	if p.TotalBits == 0 {
		t.Error("plan counted no injectable bits")
	}
	// The counter does move when a runner is built, so the zero above is
	// not vacuous.
	if _, err := fi.NewRunner(g.Trace.Module, g, p.FIConfig()); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counter("epvf_vm_compiles_total"); n != 1 {
		t.Errorf("NewRunner compiled %d times, want 1", n)
	}
}
