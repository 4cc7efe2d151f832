package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/crash"
	"repro/internal/ddg"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/rangeprop"
	"repro/internal/report"
)

// stackKernelSrc is a stack-heavy kernel used by the stack-rule ablation:
// all its data lives in frame arrays, so a meaningful share of address
// corruptions land just below the stack VMA where Linux's expand_stack
// rescues them — the accesses the paper's naive model mispredicted.
const stackKernelSrc = `
void main() {
  long window[48];
  long acc[48];
  int i;
  int j;
  for (i = 0; i < 48; i = i + 1) {
    window[i] = i * 13;
    acc[i] = 0;
  }
  for (j = 0; j < 12; j = j + 1) {
    for (i = 0; i < 48; i = i + 1) {
      acc[i] = acc[i] + window[(i + j) % 48];
    }
  }
  for (i = 0; i < 48; i = i + 1) { output(acc[i]); }
}
`

// AblationStackRuleResult quantifies the crash model's stack-extension rule
// (§III-D). The paper's naive hypothesis — "any access outside segment
// boundaries faults" — mispredicted ~15% of out-of-segment accesses; the
// delta bits here are exactly those accesses: predicted to crash by the
// naive model, rescued by the expand_stack rule in reality.
type AblationStackRuleResult struct {
	// FullBits and NaiveBits are the two models' CRASHING_BIT_LIST sizes.
	FullBits, NaiveBits int64
	// DeltaBits is the number of (register, bit) pairs only the naive
	// model predicts to crash.
	DeltaBits int64
	// DeltaCrashRate is the fraction of sampled delta bits that actually
	// crash (should be near zero: they are the naive model's false
	// positives).
	DeltaCrashRate float64
	// FullPrecision is the crash fraction of bits the full model predicts.
	FullPrecision float64
	// Sampled counts the targeted injections per set.
	SampledDelta, SampledFull int
}

// AblationStackRule compares the full and naive crash models on the
// stack-heavy kernel.
func AblationStackRule(s *Suite) (*AblationStackRuleResult, error) {
	m, err := lang.Compile("stackkernel", stackKernelSrc)
	if err != nil {
		return nil, err
	}
	golden, err := epvf.Profile(m, interp.Config{})
	if err != nil {
		return nil, err
	}
	tr := golden.Trace
	g := ddg.New(tr)
	mask := g.ACEMask()
	full := rangeprop.Analyze(tr, g, mask, rangeprop.Config{Model: &crash.Model{StackRule: true}})
	naive := rangeprop.Analyze(tr, g, mask, rangeprop.Config{Model: &crash.Model{StackRule: false}})

	res := &AblationStackRuleResult{
		FullBits:  full.CrashBitCount,
		NaiveBits: naive.CrashBitCount,
	}
	// The delta set: naive-only predictions.
	var delta []fi.Target
	naive.EachDef(func(def int64, nm uint64) {
		only := nm &^ full.DefMask(def)
		for b := 0; b < 64; b++ {
			if only&(1<<uint(b)) != 0 {
				delta = append(delta, fi.Target{Event: def, Bit: b})
				res.DeltaBits++
			}
		}
	})
	sort.Slice(delta, func(i, j int) bool {
		if delta[i].Event != delta[j].Event {
			return delta[i].Event < delta[j].Event
		}
		return delta[i].Bit < delta[j].Bit
	})
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 11))
	if len(delta) > s.Cfg.PrecisionSamples {
		perm := rng.Perm(len(delta))[:s.Cfg.PrecisionSamples]
		sampled := make([]fi.Target, len(perm))
		for i, p := range perm {
			sampled[i] = delta[p]
		}
		delta = sampled
	}
	runner, err := fi.NewRunner(m, golden, fi.Config{Seed: s.Cfg.Seed})
	if err != nil {
		return nil, err
	}
	crashes := 0
	for _, tgt := range delta {
		if runner.RunTarget(tgt, rng).Outcome == fi.OutcomeCrash {
			crashes++
		}
	}
	res.SampledDelta = len(delta)
	if len(delta) > 0 {
		res.DeltaCrashRate = float64(crashes) / float64(len(delta))
	}
	res.FullPrecision, res.SampledFull = fi.MeasurePrecision(m, golden, full,
		s.Cfg.PrecisionSamples, fi.Config{Seed: s.Cfg.Seed + 12})
	return res, nil
}

// Render prints the stack-rule ablation.
func (r *AblationStackRuleResult) Render() string {
	t := report.NewTable("Ablation: Linux stack-extension rule (stack-heavy kernel)",
		"Metric", "Value")
	t.AddRow("crash bits (full model)", r.FullBits)
	t.AddRow("crash bits (naive model)", r.NaiveBits)
	t.AddRow("naive-only delta bits", r.DeltaBits)
	t.AddRow("delta bits that actually crash", report.Percent(r.DeltaCrashRate))
	t.AddRow("full-model precision", report.Percent(r.FullPrecision))
	t.AddRow("targeted injections (delta/full)",
		fmt.Sprintf("%d / %d", r.SampledDelta, r.SampledFull))
	return t.String()
}

// AblationExactResult compares interval-based crash-bit derivation at the
// faulting access (the paper's Algorithm 2) with the exact multi-VMA
// oracle: the interval cannot see a flipped address landing inside a
// different valid VMA.
type AblationExactResult struct {
	Rows []struct {
		Name                              string
		IntervalBits, ExactBits           int64
		IntervalPrecision, ExactPrecision float64
	}
}

// AblationExactVsRange runs the exact-address ablation.
func AblationExactVsRange(s *Suite) (*AblationExactResult, error) {
	res := &AblationExactResult{}
	err := s.ForEach(func(r *BenchResult) error {
		tr := r.Analysis.Trace
		g := ddg.New(tr)
		mask := g.ACEMask()
		interval := r.Analysis.CrashResult
		exact := rangeprop.Analyze(tr, g, mask, rangeprop.Config{ExactAddress: true})
		ip, _ := fi.MeasurePrecision(r.Module, r.Golden, interval, s.Cfg.PrecisionSamples,
			fi.Config{Seed: s.Cfg.Seed + 12, JitterWindow: s.Cfg.Jitter})
		ep, _ := fi.MeasurePrecision(r.Module, r.Golden, exact, s.Cfg.PrecisionSamples,
			fi.Config{Seed: s.Cfg.Seed + 12, JitterWindow: s.Cfg.Jitter})
		res.Rows = append(res.Rows, struct {
			Name                              string
			IntervalBits, ExactBits           int64
			IntervalPrecision, ExactPrecision float64
		}{r.Bench.Name, interval.CrashBitCount, exact.CrashBitCount, ip, ep})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the exact-vs-range ablation.
func (r *AblationExactResult) Render() string {
	t := report.NewTable("Ablation: interval vs exact-VMA crash bits at the faulting access",
		"Benchmark", "Bits (interval)", "Bits (exact)", "Precision (interval)", "Precision (exact)")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.IntervalBits, row.ExactBits,
			report.Percent(row.IntervalPrecision), report.Percent(row.ExactPrecision))
	}
	return t.String()
}

// AblationJitterResult sweeps the ASLR window and reports recall/precision
// — the knob that reproduces the paper's environmental-nondeterminism gap.
type AblationJitterResult struct {
	Rows []struct {
		Name              string
		JitterPages       uint64
		Recall, Precision float64
	}
}

// AblationJitter sweeps layout jitter for the first configured benchmark.
func AblationJitter(s *Suite, pages []uint64) (*AblationJitterResult, error) {
	res := &AblationJitterResult{}
	benches := s.Cfg.benchmarks()
	if len(benches) == 0 {
		return res, nil
	}
	r, err := s.Bench(benches[0])
	if err != nil {
		return nil, err
	}
	for _, p := range pages {
		camp, err := fi.RunCampaign(r.Module, r.Golden, fi.Config{
			Runs: s.Cfg.Runs, Seed: s.Cfg.Seed + 13, JitterWindow: p * 4096,
			Parallel: s.Cfg.Parallel,
		})
		if err != nil {
			return nil, err
		}
		recall, _ := fi.MeasureRecall(camp.Records, r.Analysis.CrashResult)
		prec, _ := fi.MeasurePrecision(r.Module, r.Golden, r.Analysis.CrashResult,
			s.Cfg.PrecisionSamples, fi.Config{Seed: s.Cfg.Seed + 14, JitterWindow: p * 4096})
		res.Rows = append(res.Rows, struct {
			Name              string
			JitterPages       uint64
			Recall, Precision float64
		}{r.Bench.Name, p, recall, prec})
	}
	return res, nil
}

// Render prints the jitter ablation.
func (r *AblationJitterResult) Render() string {
	t := report.NewTable("Ablation: ASLR jitter window vs model accuracy",
		"Benchmark", "Jitter (pages)", "Recall", "Precision")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.JitterPages, report.Percent(row.Recall), report.Percent(row.Precision))
	}
	return t.String()
}

// AblationBranchRootsResult quantifies the conservative branch rooting of
// the ACE graph (§VI-B): without it, loop-control registers fall out of
// the ACE set and PVF drops well below the near-1 values of Fig. 12.
type AblationBranchRootsResult struct {
	Rows []struct {
		Name                string
		PVFWith, PVFWithout float64
		ACEWith, ACEWithout int64
	}
}

// AblationBranchRoots compares branch-rooted and output-only ACE graphs.
func AblationBranchRoots(s *Suite) (*AblationBranchRootsResult, error) {
	res := &AblationBranchRootsResult{}
	err := s.ForEach(func(r *BenchResult) error {
		tr := r.Analysis.Trace
		g := ddg.New(tr)
		outOnly := g.ACEMaskOutputsOnly()
		var aceOut int64
		var total, ace int64
		for i := range tr.NumEvents() {
			w := int64(tr.Instr(i).Type().BitWidth())
			if w == 0 {
				continue
			}
			total += w
			if outOnly[i] {
				aceOut += w
			}
			if r.Analysis.ACEMask[i] {
				ace += w
			}
		}
		res.Rows = append(res.Rows, struct {
			Name                string
			PVFWith, PVFWithout float64
			ACEWith, ACEWithout int64
		}{r.Bench.Name, float64(ace) / float64(total), float64(aceOut) / float64(total),
			ddg.CountMask(r.Analysis.ACEMask), ddg.CountMask(outOnly)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the branch-roots ablation.
func (r *AblationBranchRootsResult) Render() string {
	t := report.NewTable("Ablation: branch-rooted vs output-only ACE graph",
		"Benchmark", "PVF (branch-rooted)", "PVF (outputs only)", "ACE nodes (branch)", "ACE nodes (outputs)")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.PVFWith, row.PVFWithout, row.ACEWith, row.ACEWithout)
	}
	return t.String()
}

// AblationDepthResult sweeps the backward-slice depth bound of the
// propagation model.
type AblationDepthResult struct {
	Rows []struct {
		Name      string
		Depth     int
		CrashBits int64
		Recall    float64
	}
}

// AblationDepth sweeps MaxDepth for the first configured benchmark.
func AblationDepth(s *Suite, depths []int) (*AblationDepthResult, error) {
	res := &AblationDepthResult{}
	benches := s.Cfg.benchmarks()
	if len(benches) == 0 {
		return res, nil
	}
	r, err := s.Bench(benches[0])
	if err != nil {
		return nil, err
	}
	tr := r.Analysis.Trace
	g := ddg.New(tr)
	mask := g.ACEMask()
	for _, d := range depths {
		prop := rangeprop.Analyze(tr, g, mask, rangeprop.Config{MaxDepth: d})
		recall, _ := fi.MeasureRecall(r.Campaign.Records, prop)
		res.Rows = append(res.Rows, struct {
			Name      string
			Depth     int
			CrashBits int64
			Recall    float64
		}{r.Bench.Name, d, prop.CrashBitCount, recall})
	}
	return res, nil
}

// Render prints the depth ablation.
func (r *AblationDepthResult) Render() string {
	t := report.NewTable("Ablation: backward-slice depth bound",
		"Benchmark", "MaxDepth", "Crash bits", "Recall")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Depth, row.CrashBits, report.Percent(row.Recall))
	}
	return t.String()
}
