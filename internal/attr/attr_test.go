package attr_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/lang"
)

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

func analyze(t testing.TB) (*epvf.Analysis, *interp.Result) {
	t.Helper()
	m, err := lang.Compile("t", kernelSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	g, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return epvf.AnalyzeTrace(g.Trace, epvf.Config{}), g
}

func TestJudgeTaxonomy(t *testing.T) {
	cases := []struct {
		class attr.BitClass
		o     fi.Outcome
		want  attr.Verdict
	}{
		{attr.ClassCrash, fi.OutcomeCrash, attr.VerdictAgree},
		{attr.ClassCrash, fi.OutcomeBenign, attr.VerdictCrashFP},
		{attr.ClassCrash, fi.OutcomeSDC, attr.VerdictCrashFP},
		{attr.ClassCrash, fi.OutcomeHang, attr.VerdictCrashFP},
		{attr.ClassCrash, fi.OutcomeDetected, attr.VerdictCrashFP},
		{attr.ClassACE, fi.OutcomeCrash, attr.VerdictCrashFN},
		{attr.ClassACE, fi.OutcomeBenign, attr.VerdictOvershoot},
		{attr.ClassACE, fi.OutcomeSDC, attr.VerdictAgree},
		{attr.ClassACE, fi.OutcomeHang, attr.VerdictAgree},
		{attr.ClassACE, fi.OutcomeDetected, attr.VerdictAgree},
		{attr.ClassUnACE, fi.OutcomeCrash, attr.VerdictCrashFN},
		{attr.ClassUnACE, fi.OutcomeBenign, attr.VerdictAgree},
		{attr.ClassUnACE, fi.OutcomeSDC, attr.VerdictUndershoot},
		{attr.ClassUnACE, fi.OutcomeHang, attr.VerdictUndershoot},
		{attr.ClassUnACE, fi.OutcomeDetected, attr.VerdictUndershoot},
	}
	for _, c := range cases {
		if got := attr.Judge(c.class, c.o); got != c.want {
			t.Errorf("Judge(%v, %v) = %v, want %v", c.class, c.o, got, c.want)
		}
	}
}

// TestLedgerStreamsRealCampaign feeds a real FI campaign through the
// ledger from fi.Runner.Run's callback and checks the snapshot's internal
// consistency: every record lands in exactly one cell, outcome tallies
// match the campaign's own aggregate, and no target of the golden-trace
// sampler is unclassifiable.
func TestLedgerStreamsRealCampaign(t *testing.T) {
	a, g := analyze(t)
	runner, err := fi.NewRunner(g.Trace.Module, g, fi.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ledger := attr.NewLedger(attr.NewClassifier(a))
	const runs = 200
	idxs := make([]int64, runs)
	for i := range idxs {
		idxs[i] = int64(i)
	}
	records := make([]fi.Record, runs)
	err = runner.Run(context.Background(), idxs, 4, func(i int64, rec fi.Record, _ time.Time, _ time.Duration) error {
		records[i] = rec
		ledger.Observe(rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := ledger.Snapshot()
	if ledger.Runs() != runs || snap.Runs != runs {
		t.Fatalf("ledger observed %d/%d runs, want %d", ledger.Runs(), snap.Runs, runs)
	}
	if snap.Unknown != 0 {
		t.Errorf("%d targets unclassifiable; sampler and classifier share the trace, want 0", snap.Unknown)
	}
	var cellRuns, crash int64
	for i := range snap.Cells {
		cellRuns += snap.Cells[i].Runs()
		crash += snap.Cells[i].Crash
	}
	if cellRuns != runs {
		t.Errorf("cell tallies sum to %d, want %d", cellRuns, runs)
	}
	var wantCrash int64
	for _, r := range records {
		if r.Outcome == fi.OutcomeCrash {
			wantCrash++
		}
	}
	if crash != wantCrash {
		t.Errorf("ledger counted %d crashes, campaign produced %d", crash, wantCrash)
	}

	// Streaming and batch collection are the same ledger.
	batch := attr.Collect(ledger.Classifier(), records)
	if batch.Hash() != snap.Hash() {
		t.Errorf("Collect hash %s != streaming hash %s", batch.Hash(), snap.Hash())
	}
}

// randomRecords synthesizes a classifiable record stream over the
// analysis's definition events, with multi-bit faults and a sprinkling
// of unclassifiable targets.
func randomRecords(a *epvf.Analysis, rng *rand.Rand, n int) []fi.Record {
	defs := a.DefClasses()
	outcomes := []fi.Outcome{fi.OutcomeBenign, fi.OutcomeCrash, fi.OutcomeSDC, fi.OutcomeHang, fi.OutcomeDetected}
	recs := make([]fi.Record, 0, n)
	for i := 0; i < n; i++ {
		rec := fi.Record{Outcome: outcomes[rng.Intn(len(outcomes))]}
		if rec.Outcome == fi.OutcomeCrash {
			rec.Exc = interp.ExcKind(1 + rng.Intn(4))
		}
		if rng.Intn(20) == 0 {
			rec.Target = fi.Target{Event: -1, Bit: 0} // unclassifiable
		} else {
			d := defs[rng.Intn(len(defs))]
			w := d.Width
			if w <= 0 {
				w = 1
			}
			rec.Target = fi.Target{Event: d.Event, Bit: rng.Intn(w)}
			if rng.Intn(4) == 0 { // multi-bit fault
				rec.Target.Mask = 1<<uint(rng.Intn(w)) | 1<<uint(rng.Intn(w))
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

func marshal(t *testing.T, s *attr.Snapshot) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergeAssociativityProperty is the satellite property test: over
// randomized record streams split into randomized shards, every merge
// tree — left-nested, right-nested, absorb-in-any-order, or one
// streaming pass — produces byte-identical snapshots.
func TestMergeAssociativityProperty(t *testing.T) {
	a, _ := analyze(t)
	cls := attr.NewClassifier(a)
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		recs := randomRecords(a, rng, 50+rng.Intn(400))

		// Split into 3 random contiguous shards (some possibly empty).
		cut1 := rng.Intn(len(recs) + 1)
		cut2 := cut1 + rng.Intn(len(recs)+1-cut1)
		sa := attr.Collect(cls, recs[:cut1])
		sb := attr.Collect(cls, recs[cut1:cut2])
		sc := attr.Collect(cls, recs[cut2:])

		stream := attr.Collect(cls, recs)
		left := attr.Merge(attr.Merge(sa, sb), sc)
		right := attr.Merge(sa, attr.Merge(sb, sc))
		perm := attr.Merge(sc, sa, sb)

		want := marshal(t, stream)
		for name, got := range map[string]*attr.Snapshot{
			"merge(merge(a,b),c)": left, "merge(a,merge(b,c))": right, "merge(c,a,b)": perm,
		} {
			if !bytes.Equal(marshal(t, got), want) {
				t.Fatalf("trial %d: %s diverges from streaming snapshot\ngot:  %s\nwant: %s",
					trial, name, marshal(t, got), want)
			}
			if got.Hash() != stream.Hash() {
				t.Fatalf("trial %d: %s hash %s != %s", trial, name, got.Hash(), stream.Hash())
			}
		}

		// Absorbing the shard snapshots into a fresh ledger, in a shuffled
		// order, is the coordinator-side path of the same law.
		l := attr.NewLedger(cls)
		shards := []*attr.Snapshot{sa, sb, sc}
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
		for _, s := range shards {
			l.Absorb(s)
		}
		if got := l.Snapshot(); !bytes.Equal(marshal(t, got), want) {
			t.Fatalf("trial %d: absorb order diverges\ngot:  %s\nwant: %s", trial, marshal(t, got), want)
		}
	}
}

func TestMergeEmptyAndNil(t *testing.T) {
	s := attr.Merge(nil, nil)
	if s == nil || s.Runs != 0 || len(s.Cells) != 0 {
		t.Errorf("Merge(nil, nil) = %+v, want empty snapshot", s)
	}
	a, _ := analyze(t)
	cls := attr.NewClassifier(a)
	one := attr.Collect(cls, randomRecords(a, rand.New(rand.NewSource(9)), 100))
	if got := attr.Merge(one, nil).Hash(); got != one.Hash() {
		t.Errorf("merging with nil changed the snapshot: %s != %s", got, one.Hash())
	}
}

// TestNilLedgerIsInert covers the disabled path: every method on a nil
// ledger (and a nil snapshot hash) is a safe no-op, which is what lets
// callers thread an optional ledger without branching.
func TestNilLedgerIsInert(t *testing.T) {
	var l *attr.Ledger
	l.Observe(fi.Record{Target: fi.Target{Event: 3, Bit: 5}, Outcome: fi.OutcomeCrash})
	l.Absorb(&attr.Snapshot{Runs: 7})
	if l.Runs() != 0 {
		t.Errorf("nil ledger Runs() = %d", l.Runs())
	}
	if l.Snapshot() != nil {
		t.Error("nil ledger Snapshot() != nil")
	}
	if l.Classifier() != nil {
		t.Error("nil ledger Classifier() != nil")
	}
	var s *attr.Snapshot
	if s.Hash() != "" {
		t.Errorf("nil snapshot Hash() = %q", s.Hash())
	}
}

func TestClassifierUnknownTargets(t *testing.T) {
	a, g := analyze(t)
	cls := attr.NewClassifier(a)
	for _, tgt := range []fi.Target{
		{Event: -1}, {Event: g.Trace.NumEvents() + 10},
	} {
		if _, _, ok := cls.Classify(tgt); ok {
			t.Errorf("Classify(%+v) ok, want unknown", tgt)
		}
	}
	l := attr.NewLedger(cls)
	l.Observe(fi.Record{Target: fi.Target{Event: -1}, Outcome: fi.OutcomeBenign})
	if s := l.Snapshot(); s.Runs != 1 || s.Unknown != 1 || len(s.Cells) != 0 {
		t.Errorf("unknown target snapshot %+v, want runs=1 unknown=1 no cells", s)
	}
}

// TestMispredictedMatchesVerdicts checks that the pure-function
// Mispredicted derivation on merged cells equals per-record judging.
func TestMispredictedMatchesVerdicts(t *testing.T) {
	a, _ := analyze(t)
	cls := attr.NewClassifier(a)
	rng := rand.New(rand.NewSource(17))
	recs := randomRecords(a, rng, 500)
	var want int64
	for _, r := range recs {
		if _, class, ok := cls.Classify(r.Target); ok && attr.Judge(class, r.Outcome) != attr.VerdictAgree {
			want++
		}
	}
	s := attr.Collect(cls, recs)
	var got int64
	for i := range s.Cells {
		got += s.Cells[i].Mispredicted()
	}
	if got != want {
		t.Errorf("cells report %d mispredictions, per-record judging gives %d", got, want)
	}
	// And the report's verdict tallies agree with both.
	r := attr.BuildReport(s, nil)
	var rep int64
	for _, c := range r.Classes {
		rep += c.Verdicts.Mispredicted()
	}
	if rep != want {
		t.Errorf("report verdicts sum to %d mispredictions, want %d", rep, want)
	}
}
