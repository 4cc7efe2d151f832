package fi

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ddg"
	"repro/internal/epvf"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/rangeprop"
	"repro/internal/snapshot"
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

func golden(t *testing.T, src string) *interp.Result {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Exception != nil {
		t.Fatalf("golden exception: %v", res.Exception)
	}
	return res
}

// tally is a campaign's records with their outcome and crash-kind counts.
type tally struct {
	Records    []Record
	Counts     map[Outcome]int
	CrashTypes map[interp.ExcKind]int
}

func tallyOf(recs []Record) *tally {
	c := &tally{Records: recs, Counts: make(map[Outcome]int), CrashTypes: make(map[interp.ExcKind]int)}
	for _, rec := range recs {
		c.Counts[rec.Outcome]++
		if rec.Outcome == OutcomeCrash {
			c.CrashTypes[rec.Exc]++
		}
	}
	return c
}

// rate returns the fraction of runs with outcome o.
func (c *tally) rate(o Outcome) float64 {
	return float64(c.Counts[o]) / float64(len(c.Records))
}

// runCampaign executes runs [0, runs) of cfg the way a campaign does,
// restoring snapshots wherever cfg allows them, on the given number of
// workers, and tallies the records. internal/campaign, which drives real
// campaigns, imports this package, so its tests cannot call it.
func runCampaign(t *testing.T, m *ir.Module, g *interp.Result, cfg Config, runs int64, workers int) *tally {
	t.Helper()
	r, err := NewRunner(m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EnableSnapshots(snapshot.Config{}); err != nil {
		t.Fatal(err)
	}
	return tallyOf(r.RunRange(0, runs, workers))
}

func TestSamplerUniformOverBits(t *testing.T) {
	g := golden(t, kernelSrc)
	s := NewSampler(g.Trace)
	if s.TotalBits() <= 0 {
		t.Fatal("empty bit population")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		tgt, ok := s.Sample(rng)
		if !ok {
			t.Fatal("sample failed")
		}
		ev := g.Trace.Event(tgt.Event)
		if ev.Instr.Type().IsVoid() {
			t.Fatalf("sampled a void instruction %s", ev.Instr.Op)
		}
		if tgt.Bit < 0 || tgt.Bit >= ev.Instr.Type().BitWidth() {
			t.Fatalf("sampled bit %d outside width %d", tgt.Bit, ev.Instr.Type().BitWidth())
		}
	}
}

func TestSamplerWidthWeighting(t *testing.T) {
	// i64 defs must be sampled roughly twice as often per def as i32 defs.
	g := golden(t, kernelSrc)
	s := NewSampler(g.Trace)
	rng := rand.New(rand.NewSource(2))
	w64, w32, n64, n32 := 0, 0, 0, 0
	for i := range g.Trace.NumEvents() {
		in := g.Trace.Instr(i)
		switch in.Type().BitWidth() {
		case 64:
			n64++
		case 32:
			n32++
		}
	}
	for i := 0; i < 4000; i++ {
		tgt, _ := s.Sample(rng)
		switch g.Trace.Instr(tgt.Event).Type().BitWidth() {
		case 64:
			w64++
		case 32:
			w32++
		}
	}
	if n64 == 0 || n32 == 0 {
		t.Skip("kernel lacks one of the widths")
	}
	perDef64 := float64(w64) / float64(n64)
	perDef32 := float64(w32) / float64(n32)
	ratio := perDef64 / perDef32
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("width weighting ratio = %.2f, want ~2", ratio)
	}
}

func TestCampaignOutcomesPartition(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	res := runCampaign(t, m, g, Config{Seed: 3}, 200, 1)
	if len(res.Records) != 200 {
		t.Fatalf("records = %d", len(res.Records))
	}
	total := 0
	for _, o := range FailureOutcomes {
		total += res.Counts[o]
	}
	if total != len(res.Records) {
		t.Errorf("outcome counts (%d) do not partition records (%d)", total, len(res.Records))
	}
	if res.Counts[OutcomeCrash] == 0 {
		t.Error("no crashes in 200 injections — implausible")
	}
	if res.Counts[OutcomeBenign]+res.Counts[OutcomeSDC] == 0 {
		t.Error("no benign or SDC outcomes — implausible")
	}
	crashTypeTotal := 0
	for _, k := range CrashKinds {
		crashTypeTotal += res.CrashTypes[k]
	}
	if crashTypeTotal != res.Counts[OutcomeCrash] {
		t.Errorf("crash types (%d) do not partition crashes (%d)",
			crashTypeTotal, res.Counts[OutcomeCrash])
	}
}

func TestSegFaultsDominateCrashes(t *testing.T) {
	// The Table II phenomenon: segmentation faults are the dominant crash
	// cause.
	g := golden(t, kernelSrc)
	res := runCampaign(t, g.Trace.Module, g, Config{Seed: 4}, 300, 1)
	if res.Counts[OutcomeCrash] == 0 {
		t.Fatal("no crashes in 300 injections")
	}
	if share := float64(res.CrashTypes[interp.ExcSegFault]) / float64(res.Counts[OutcomeCrash]); share < 0.9 {
		t.Errorf("segfault share = %.2f, want >= 0.9", share)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	r1 := runCampaign(t, m, g, Config{Seed: 9, JitterWindow: 64 * mem.PageSize}, 60, 1)
	r2 := runCampaign(t, m, g, Config{Seed: 9, JitterWindow: 64 * mem.PageSize}, 60, 1)
	for i := range r1.Records {
		if r1.Records[i] != r2.Records[i] {
			t.Fatalf("record %d differs between identical campaigns", i)
		}
	}
}

func analysisOf(t *testing.T, g *interp.Result) *rangeprop.Result {
	t.Helper()
	gr := ddg.New(g.Trace)
	return rangeprop.Analyze(g.Trace, gr, gr.ACEMask(), rangeprop.Config{})
}

func TestRecallHighOnDeterministicLayout(t *testing.T) {
	g := golden(t, kernelSrc)
	prop := analysisOf(t, g)
	res := runCampaign(t, g.Trace.Module, g, Config{Seed: 5}, 300, 1)
	recall, crashes := MeasureRecall(res.Records, prop)
	if crashes < 30 {
		t.Fatalf("too few crashes to measure recall: %d", crashes)
	}
	if recall < 0.8 {
		t.Errorf("recall = %.2f (n=%d), want >= 0.8", recall, crashes)
	}
}

func TestPrecisionHigh(t *testing.T) {
	g := golden(t, kernelSrc)
	prop := analysisOf(t, g)
	precision, n := MeasurePrecision(g.Trace.Module, g, prop, 120, Config{Seed: 6})
	if n < 50 {
		t.Fatalf("too few targeted injections: %d", n)
	}
	if precision < 0.7 {
		t.Errorf("precision = %.2f (n=%d), want >= 0.7", precision, n)
	}
}

func TestSamplePredictedDeterministic(t *testing.T) {
	g := golden(t, kernelSrc)
	prop := analysisOf(t, g)
	a := SamplePredicted(prop, 50, rand.New(rand.NewSource(7)))
	b := SamplePredicted(prop, 50, rand.New(rand.NewSource(7)))
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("sample sizes differ or empty: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SamplePredicted not deterministic under a fixed seed")
		}
	}
	for _, tgt := range a {
		if !prop.PredictedDef(tgt.Event, tgt.Bit) {
			t.Fatal("sampled target is not a predicted crash bit")
		}
	}
}

func TestModelCrashRateTracksFIRate(t *testing.T) {
	// Fig. 8: the model's crash-bit fraction approximates the campaign
	// crash rate.
	b, _ := bench.Get("pathfinder")
	m := b.MustModule(1)
	a, g, err := epvf.AnalyzeModule(m, epvf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := runCampaign(t, m, g, Config{Seed: 11, JitterWindow: 64 * mem.PageSize}, 300, 1)
	modelRate := a.CrashRate()
	fiRate := res.rate(OutcomeCrash)
	if diff := modelRate - fiRate; diff > 0.15 || diff < -0.15 {
		t.Errorf("model crash rate %.3f vs FI crash rate %.3f: gap too large", modelRate, fiRate)
	}
}

func TestHangDetectionInCampaign(t *testing.T) {
	// A program whose loop bound lives in memory: flips can produce
	// very long loops; the campaign must classify them as hangs, not spin
	// forever.
	src := `
void main() {
  int i = 0;
  int n = 1000;
  int s = 0;
  while (i < n) { s = s + i; i = i + 1; }
  output(s);
}`
	g := golden(t, src)
	res := runCampaign(t, g.Trace.Module, g, Config{Seed: 12, HangFactor: 3}, 300, 1)
	if res.Counts[OutcomeHang] == 0 {
		t.Log("no hangs observed (acceptable but unusual at HangFactor=3)")
	}
	total := 0
	for _, o := range FailureOutcomes {
		total += res.Counts[o]
	}
	if total != len(res.Records) {
		t.Error("outcomes do not partition")
	}
}

func TestRunCampaignRequiresTrace(t *testing.T) {
	g := golden(t, kernelSrc)
	bare := &interp.Result{Outputs: g.Outputs, DynInstrs: g.DynInstrs}
	if _, err := NewRunner(g.Trace.Module, bare, Config{}); err == nil {
		t.Error("a runner without a golden trace must fail")
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeCrash.String() != "crash" || OutcomeSDC.String() != "SDC" {
		t.Error("outcome names wrong")
	}
	if Outcome(99).String() == "" {
		t.Error("unknown outcome must render something")
	}
}

func TestParallelCampaignDeterministic(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	serial := runCampaign(t, m, g, Config{Seed: 13, JitterWindow: 64 * mem.PageSize}, 80, 1)
	parallel := runCampaign(t, m, g, Config{Seed: 13, JitterWindow: 64 * mem.PageSize}, 80, 8)
	if len(serial.Records) != len(parallel.Records) {
		t.Fatal("record counts differ")
	}
	for i := range serial.Records {
		if serial.Records[i] != parallel.Records[i] {
			t.Fatalf("record %d differs between serial and parallel campaigns", i)
		}
	}
}

func TestTargetSeedStableAndDistinct(t *testing.T) {
	if TargetSeed(7, 3) != TargetSeed(7, 3) {
		t.Error("TargetSeed is not a pure function")
	}
	seen := map[int64]bool{}
	for i := int64(0); i < 1000; i++ {
		s := TargetSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if TargetSeed(1, 0) == TargetSeed(2, 0) {
		t.Error("different campaign seeds map index 0 to the same stream")
	}
}

func TestRunnerIndexIndependence(t *testing.T) {
	// Run index i must yield the same record whether executed alone, as
	// part of a batch, or inside a full campaign — the property sharded
	// campaigns rely on.
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	cfg := Config{Seed: 17, JitterWindow: 64 * mem.PageSize}
	r, err := NewRunner(m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := runCampaign(t, m, g, cfg, 40, 1)
	batch := r.RunRange(10, 20, 4)
	for i, rec := range batch {
		if rec != full.Records[10+i] {
			t.Fatalf("batched record %d differs from campaign record", 10+i)
		}
	}
	if one := r.RunIndex(33); one != full.Records[33] {
		t.Fatal("individually executed record differs from campaign record")
	}
}

func TestRunnerBatchesMatchCampaign(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	cfg := Config{Seed: 19}
	r, err := NewRunner(m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Execute the same index range in two disjoint batches, out of order,
	// and tally: counts must match the monolithic campaign.
	agg := tallyOf(append(r.RunRange(25, 50, 3), r.RunRange(0, 25, 2)...))
	full := runCampaign(t, m, g, cfg, 50, 1)
	for _, o := range FailureOutcomes {
		if agg.Counts[o] != full.Counts[o] {
			t.Errorf("outcome %v: batched count %d != campaign count %d",
				o, agg.Counts[o], full.Counts[o])
		}
	}
}

func TestMultiBitCampaign(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	res := runCampaign(t, m, g, Config{Seed: 14, FaultBits: 2}, 150, 1)
	multi := 0
	for _, r := range res.Records {
		if r.Target.Mask != 0 && bits.OnesCount64(r.Target.Mask) == 2 {
			multi++
		}
	}
	if multi < 100 {
		t.Errorf("only %d/150 records carry a 2-bit mask", multi)
	}
	if res.Counts[OutcomeCrash] == 0 {
		t.Error("no crashes under the 2-bit model")
	}
}

// TestRunTargetEnginesAgree: targeted injections return identical records
// on the VM and on a walker runner for the same targets and rng, with and
// without layout jitter, and both runners leave rng in the same state.
func TestRunTargetEnginesAgree(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	s := NewSampler(g.Trace)
	pick := rand.New(rand.NewSource(3))
	var targets []Target
	for i := 0; i < 80; i++ {
		tgt, _ := s.SampleMulti(pick, 1+i%2)
		targets = append(targets, tgt)
	}
	for _, jitter := range []uint64{0, 64 * mem.PageSize} {
		cfg := Config{Seed: 7, JitterWindow: jitter}
		vmRunner, err := NewRunner(m, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = EngineWalker
		walker, err := NewRunner(m, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		vmRng, walkerRng := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		outcomes := map[Outcome]bool{}
		for i, tgt := range targets {
			got, want := vmRunner.RunTarget(tgt, vmRng), walker.RunTarget(tgt, walkerRng)
			if got != want {
				t.Fatalf("jitter %d target %d %+v: vm %+v, walker %+v", jitter, i, tgt, got, want)
			}
			outcomes[got.Outcome] = true
		}
		if a, b := vmRng.Int63(), walkerRng.Int63(); a != b {
			t.Fatalf("jitter %d: rng states differ after the runs (%d vs %d)", jitter, a, b)
		}
		if len(outcomes) < 2 {
			t.Fatalf("jitter %d: every injection had the same outcome %v", jitter, outcomes)
		}
		for engine, r := range map[string]*Runner{EngineVM: vmRunner, EngineWalker: walker} {
			if st := r.EngineStats(); len(st) != 1 || st[0].Engine != engine || st[0].Runs != int64(len(targets)) {
				t.Fatalf("jitter %d: %s runner's engine stats %+v", jitter, engine, st)
			}
		}
	}
}
