package campaign

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/attr"
	"repro/internal/epvf"
	"repro/internal/interp"
)

func testLedger(t *testing.T, g *interp.Result) *attr.Ledger {
	t.Helper()
	return attr.NewLedger(attr.NewClassifier(epvf.AnalyzeTrace(g.Trace, epvf.Config{})))
}

// TestLedgerSnapshotPersistsInLog: an engine run with a ledger appends
// the snapshot at checkpoints; ReadLog hands it back, and it matches
// both the live ledger and an exact recompute from the logged records.
func TestLedgerSnapshotPersistsInLog(t *testing.T) {
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 80, 20)
	logPath := filepath.Join(t.TempDir(), "log.jsonl")
	ledger := testLedger(t, g)
	res, err := Run(context.Background(), g.Trace.Module, g, plan,
		RunOptions{LogPath: logPath, Workers: 2, Ledger: ledger})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("campaign incomplete")
	}
	want := ledger.Snapshot()
	if want.Runs != int64(plan.Runs) {
		t.Fatalf("ledger observed %d runs, want %d", want.Runs, plan.Runs)
	}

	d, err := ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if d.Attr == nil {
		t.Fatal("log carries no attribution snapshot")
	}
	if d.Attr.Hash() != want.Hash() {
		t.Errorf("cached snapshot hash %s != live ledger %s", d.Attr.Hash(), want.Hash())
	}
	// Recomputing from the logged records is exact — the path
	// `campaign attr -bench ...` takes.
	recomputed := attr.Collect(ledger.Classifier(), d.SortedRecords())
	if recomputed.Hash() != want.Hash() {
		t.Errorf("recomputed snapshot hash %s != live ledger %s", recomputed.Hash(), want.Hash())
	}
}

// TestLedgerResumeConverges: a budgeted run then a resume, each with its
// own fresh ledger, must leave the resumed ledger identical to a single
// uninterrupted pass — replayed records are re-observed on resume.
func TestLedgerResumeConverges(t *testing.T) {
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 80, 20)

	oneShot := testLedger(t, g)
	if _, err := Run(context.Background(), g.Trace.Module, g, plan,
		RunOptions{Workers: 2, Ledger: oneShot}); err != nil {
		t.Fatal(err)
	}
	want := oneShot.Snapshot()

	logPath := filepath.Join(t.TempDir(), "log.jsonl")
	first := testLedger(t, g)
	res, err := Run(context.Background(), g.Trace.Module, g, plan,
		RunOptions{LogPath: logPath, Workers: 2, Budget: 30, Ledger: first})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("budgeted run completed; budget too large for the test")
	}
	second := testLedger(t, g)
	res, err = Resume(context.Background(), g.Trace.Module, g, plan,
		RunOptions{LogPath: logPath, Workers: 2, Ledger: second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("resume did not complete")
	}
	got := second.Snapshot()
	if got.Runs != want.Runs || got.Hash() != want.Hash() {
		t.Errorf("resumed ledger (%d runs, %s) != uninterrupted ledger (%d runs, %s)",
			got.Runs, got.Hash(), want.Runs, want.Hash())
	}
	// And the log's cached snapshot agrees with the resumed ledger.
	d, err := ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if d.Attr == nil || d.Attr.Hash() != want.Hash() {
		t.Errorf("log snapshot after resume diverges from uninterrupted ledger")
	}
}

// TestMergeLogsDropsCachedSnapshots: merged logs may assemble records
// from overlapping inputs, so MergeLogs must not carry any input's
// cached snapshot forward — consumers recompute from the merged records.
func TestMergeLogsDropsCachedSnapshots(t *testing.T) {
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 60, 20)
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	la, lb := testLedger(t, g), testLedger(t, g)
	if _, err := Run(context.Background(), g.Trace.Module, g, plan,
		RunOptions{LogPath: a, Shards: []int{0, 2}, Ledger: la}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), g.Trace.Module, g, plan,
		RunOptions{LogPath: b, Shards: []int{1}, Ledger: lb}); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	if _, err := MergeLogs(merged, []string{a, b}); err != nil {
		t.Fatal(err)
	}
	d, err := ReadLog(merged)
	if err != nil {
		t.Fatal(err)
	}
	if d.Attr != nil {
		t.Error("merged log carries a cached snapshot; it must be recomputed from records")
	}
	// The shard ledgers and the merged records tell one consistent story:
	// merging the per-process snapshots equals recomputing over the
	// merged log.
	recomputed := attr.Collect(la.Classifier(), d.SortedRecords())
	mergedSnap := attr.Merge(la.Snapshot(), lb.Snapshot())
	if recomputed.Hash() != mergedSnap.Hash() {
		t.Errorf("recomputed snapshot %s != merged shard ledgers %s", recomputed.Hash(), mergedSnap.Hash())
	}
}
