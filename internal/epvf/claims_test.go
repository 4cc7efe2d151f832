package epvf

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/fi"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestPaperClaimsHold checks, on every Table IV kernel and on 20
// randomized programs, three properties the model guarantees by
// construction:
//
//   - ePVF <= PVF: Eq. 2 only subtracts crash bits from the ACE bits;
//   - every nonzero predicted crash mask belongs to an ACE register
//     definition and fits inside its width: the propagation model walks
//     the ACE graph backward from memory accesses, over register bits;
//   - CrashBitCount, Eq. 2's subtrahend, is the popcount sum of the
//     per-definition masks DefClasses exports.
func TestPaperClaimsHold(t *testing.T) {
	for _, p := range claimPrograms(t) {
		a, _, err := AnalyzeModule(p.m, Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if a.EPVF() > a.PVF() {
			t.Errorf("%s: ePVF %.4f > PVF %.4f", p.name, a.EPVF(), a.PVF())
		}
		tr := a.Trace
		a.CrashResult.EachDef(func(ev int64, mask uint64) {
			in := tr.Instr(ev)
			switch w := trace.DefWidth(in); {
			case !trace.IsDef(in):
				t.Errorf("%s: event %d (%s) defines no register but has crash mask %#x", p.name, ev, in.Op, mask)
			case !a.ACEMask[ev]:
				t.Errorf("%s: event %d (%s) is not ACE but has crash mask %#x", p.name, ev, in.Op, mask)
			case w < 64 && mask>>w != 0:
				t.Errorf("%s: event %d (%s) crash mask %#x exceeds its %d-bit register", p.name, ev, in.Op, mask, w)
			}
		})
		var sum int64
		for _, d := range a.DefClasses() {
			sum += int64(bits.OnesCount64(d.CrashMask))
		}
		if sum != a.CrashResult.CrashBitCount {
			t.Errorf("%s: DefClasses hold %d crash bits, CrashBitCount is %d", p.name, sum, a.CrashResult.CrashBitCount)
		}
	}
}

// claimProgram is one program the claims are checked on.
type claimProgram struct {
	name string
	m    *ir.Module
}

// claimPrograms returns every kernel at scale 1 and 20 random programs.
func claimPrograms(t *testing.T) []claimProgram {
	t.Helper()
	var progs []claimProgram
	for _, b := range bench.All() {
		progs = append(progs, claimProgram{b.Name, b.MustModule(1)})
	}
	for seed := range 20 {
		name := fmt.Sprintf("random%d", seed)
		m, err := lang.Compile(name, bench.RandomProgram(rand.New(rand.NewSource(int64(seed)))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs = append(progs, claimProgram{name, m})
	}
	return progs
}

// TestPaperInjectionClaimsHold checks the paper's injection-measured
// claims (§IV-B, Figs. 5-7) with a 300-run campaign per program at seed
// 2016 without layout jitter, plus 120 targeted injections into
// predicted crash bits:
//
//   - ePVF bounds the SDC rate: on every program the injected SDC rate is
//     at most ePVF plus the rate's Wilson 95% half-width;
//   - crash prediction is precise: on every program at least 70% of the
//     targeted injections crash;
//   - crash prediction recalls most crashes: at least 70% on every Table
//     IV kernel, and at least 85% on average over them, the low end of
//     the paper's 85-92%.
//
// Recall on the random programs is logged, not asserted: it ranges far
// lower than on the kernels, and the paper's claim covers its benchmarks.
func TestPaperInjectionClaimsHold(t *testing.T) {
	const (
		runs    = 300
		seed    = 2016
		targets = 120
	)
	table4 := map[string]bool{}
	for _, b := range bench.Paper10() {
		table4[b.Name] = true
	}
	var recallSum float64
	for _, p := range claimPrograms(t) {
		a, golden, err := AnalyzeModule(p.m, Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		// internal/campaign imports this package through internal/attr,
		// so the campaign runs on its runner directly, as campaign.Run would.
		r, err := fi.NewRunner(p.m, golden, fi.Config{Seed: seed})
		if err != nil {
			t.Fatalf("%s: campaign: %v", p.name, err)
		}
		if _, err := r.EnableSnapshots(snapshot.Config{}); err != nil {
			t.Fatalf("%s: campaign: %v", p.name, err)
		}
		records := r.RunRange(0, runs, 2)
		sdcRuns := 0
		for _, rec := range records {
			if rec.Outcome == fi.OutcomeSDC {
				sdcRuns++
			}
		}
		sdc := stats.Proportion{Successes: sdcRuns, N: len(records)}
		if sdc.Rate() > a.EPVF()+sdc.HalfWidth() {
			t.Errorf("%s: SDC rate %.3f exceeds ePVF %.3f + %.3f", p.name, sdc.Rate(), a.EPVF(), sdc.HalfWidth())
		}
		precision, n := fi.MeasurePrecision(p.m, golden, a.CrashResult, targets, fi.Config{Seed: seed})
		if n == 0 || precision < 0.7 {
			t.Errorf("%s: precision %.3f over %d targeted injections, want >= 0.7", p.name, precision, n)
		}
		recall, crashes := fi.MeasureRecall(records, a.CrashResult)
		t.Logf("%s: SDC %.3f (ePVF %.3f + %.3f), precision %.3f, recall %.3f over %d crashes",
			p.name, sdc.Rate(), a.EPVF(), sdc.HalfWidth(), precision, recall, crashes)
		if !table4[p.name] {
			continue
		}
		if recall < 0.7 {
			t.Errorf("%s: recall %.3f over %d crashes, want >= 0.7", p.name, recall, crashes)
		}
		recallSum += recall
	}
	mean := recallSum / float64(len(table4))
	t.Logf("mean recall over the Table IV kernels: %.3f", mean)
	if mean < 0.85 {
		t.Errorf("mean recall over the Table IV kernels %.3f, want >= 0.85", mean)
	}
}
