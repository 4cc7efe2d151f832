package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fi"
	"repro/internal/ir"
	"repro/internal/report"
)

// Extension experiments: the studies the paper's Discussion and Summary
// sections propose but do not evaluate (§II-E multi-bit faults, §VI-B
// Y-branches and lucky loads, §VIII checkpointing).

// ExtMultiBitRow compares fault models on one benchmark.
type ExtMultiBitRow struct {
	Name   string
	Bits   int
	Crash  float64
	SDC    float64
	Benign float64
	Recall float64
}

// ExtMultiBitResult validates the paper's §II-E claim (citing [25], [26])
// that single- and multiple-bit flips differ only marginally in their SDC
// impact — and shows the crash model still predicts multi-bit crashes.
type ExtMultiBitResult struct {
	Rows []ExtMultiBitRow
}

// ExtMultiBit runs 1-, 2- and 4-bit campaigns per benchmark.
func ExtMultiBit(s *Suite) (*ExtMultiBitResult, error) {
	res := &ExtMultiBitResult{}
	err := s.ForEach(func(r *BenchResult) error {
		for _, bits := range []int{1, 2, 4} {
			camp, err := s.runCampaign(fmt.Sprintf("%s-%dbit", r.Bench.Name, bits), r.Module, r.Golden, fi.Config{
				Seed: s.Cfg.Seed + 21, JitterWindow: s.Cfg.Jitter, FaultBits: bits,
			})
			if err != nil {
				return err
			}
			recall, _ := fi.MeasureRecall(camp.Records, r.Analysis.CrashResult)
			res.Rows = append(res.Rows, ExtMultiBitRow{
				Name:   r.Bench.Name,
				Bits:   bits,
				Crash:  camp.Rate(fi.OutcomeCrash),
				SDC:    camp.Rate(fi.OutcomeSDC),
				Benign: camp.Rate(fi.OutcomeBenign),
				Recall: recall,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the multi-bit extension.
func (r *ExtMultiBitResult) Render() string {
	t := report.NewTable("Extension: single- vs multi-bit faults (§II-E)",
		"Benchmark", "Bits/fault", "Crash", "SDC", "Benign", "Recall")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Bits, report.Percent(row.Crash), report.Percent(row.SDC),
			report.Percent(row.Benign), report.Percent(row.Recall))
	}
	return t.String()
}

// ExtYBranchRow reports branch-flip outcomes for one benchmark.
type ExtYBranchRow struct {
	Name string
	// SDCShare is the fraction of branch-condition flips that become
	// SDCs; prior work the paper cites (§VI-B) found ~20%.
	SDCShare    float64
	CrashShare  float64
	BenignShare float64
	Injections  int
}

// ExtYBranchResult measures the Y-branch effect (§VI-B): ePVF assumes
// every flipped branch causes an SDC, but most flipped branches are
// benign.
type ExtYBranchResult struct {
	Rows []ExtYBranchRow
}

// ExtYBranch injects into comparison results (the i1 registers feeding
// conditional branches) and classifies the outcomes.
func ExtYBranch(s *Suite) (*ExtYBranchResult, error) {
	res := &ExtYBranchResult{}
	err := s.ForEach(func(r *BenchResult) error {
		tr := r.Golden.Trace
		rng := rand.New(rand.NewSource(s.Cfg.Seed + 22))
		// Collect comparison defs that feed condbr events.
		var targets []int64
		for i := range tr.NumEvents() {
			if tr.Instr(i).Op != ir.OpCondBr {
				continue
			}
			if d := tr.OpDefsOf(i); len(d) > 0 && d[0] >= 0 {
				targets = append(targets, int64(d[0]))
			}
		}
		if len(targets) == 0 {
			return nil
		}
		n := s.Cfg.Runs / 4
		if n > len(targets)*4 {
			n = len(targets) * 4
		}
		if n < 1 {
			n = 1
		}
		runner, err := fi.NewRunner(r.Module, r.Golden, fi.Config{Seed: s.Cfg.Seed, JitterWindow: s.Cfg.Jitter})
		if err != nil {
			return err
		}
		counts := map[fi.Outcome]int{}
		for i := 0; i < n; i++ {
			tgt := fi.Target{Event: targets[rng.Intn(len(targets))], Bit: 0}
			counts[runner.RunTarget(tgt, rng).Outcome]++
		}
		res.Rows = append(res.Rows, ExtYBranchRow{
			Name:        r.Bench.Name,
			SDCShare:    float64(counts[fi.OutcomeSDC]) / float64(n),
			CrashShare:  float64(counts[fi.OutcomeCrash]) / float64(n),
			BenignShare: float64(counts[fi.OutcomeBenign]) / float64(n),
			Injections:  n,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the Y-branch study.
func (r *ExtYBranchResult) Render() string {
	t := report.NewTable("Extension: Y-branches — outcomes of branch-condition flips (§VI-B)",
		"Benchmark", "SDC", "Crash", "Benign", "Injections")
	for _, row := range r.Rows {
		t.AddRow(row.Name, report.Percent(row.SDCShare), report.Percent(row.CrashShare),
			report.Percent(row.BenignShare), row.Injections)
	}
	return t.String()
}

// ExtLuckyLoadsRow reports outcomes of in-bounds address corruption.
type ExtLuckyLoadsRow struct {
	Name string
	// BenignShare is the fraction of surviving (in-bounds) wrong-address
	// accesses that were nevertheless benign — the paper's "lucky loads"
	// overestimation source (§VI-B).
	BenignShare float64
	SDCShare    float64
	CrashShare  float64
	Injections  int
}

// ExtLuckyLoadsResult measures lucky loads: flips in address registers
// that the model predicts NOT to crash (the flipped address stays inside
// the segment) and what actually becomes of them.
type ExtLuckyLoadsResult struct {
	Rows []ExtLuckyLoadsRow
}

// ExtLuckyLoads injects into non-crash bits of address-producing
// registers.
func ExtLuckyLoads(s *Suite) (*ExtLuckyLoadsResult, error) {
	res := &ExtLuckyLoadsResult{}
	err := s.ForEach(func(r *BenchResult) error {
		tr := r.Golden.Trace
		rng := rand.New(rand.NewSource(s.Cfg.Seed + 23))
		// Address-producing defs: geps with known crash masks; the
		// in-segment bits are the zero bits of the mask below the width.
		type tgt struct {
			ev  int64
			bit int
		}
		var targets []tgt
		for i := range tr.NumEvents() {
			if tr.Instr(i).Op != ir.OpGEP {
				continue
			}
			mask := r.Analysis.CrashResult.DefMask(i)
			if mask == 0 {
				continue
			}
			for b := 0; b < 64; b++ {
				if mask&(1<<uint(b)) == 0 {
					targets = append(targets, tgt{ev: i, bit: b})
				}
			}
		}
		if len(targets) == 0 {
			return nil
		}
		n := s.Cfg.Runs / 4
		if n > len(targets) {
			n = len(targets)
		}
		if n < 1 {
			n = 1
		}
		runner, err := fi.NewRunner(r.Module, r.Golden, fi.Config{Seed: s.Cfg.Seed, JitterWindow: s.Cfg.Jitter})
		if err != nil {
			return err
		}
		counts := map[fi.Outcome]int{}
		for _, pi := range rng.Perm(len(targets))[:n] {
			rec := runner.RunTarget(fi.Target{Event: targets[pi].ev, Bit: targets[pi].bit}, rng)
			counts[rec.Outcome]++
		}
		res.Rows = append(res.Rows, ExtLuckyLoadsRow{
			Name:        r.Bench.Name,
			BenignShare: float64(counts[fi.OutcomeBenign]) / float64(n),
			SDCShare:    float64(counts[fi.OutcomeSDC]) / float64(n),
			CrashShare:  float64(counts[fi.OutcomeCrash]) / float64(n),
			Injections:  n,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the lucky-loads study.
func (r *ExtLuckyLoadsResult) Render() string {
	t := report.NewTable("Extension: lucky loads — outcomes of in-segment address corruption (§VI-B)",
		"Benchmark", "Benign", "SDC", "Crash", "Injections")
	for _, row := range r.Rows {
		t.AddRow(row.Name, report.Percent(row.BenignShare), report.Percent(row.SDCShare),
			report.Percent(row.CrashShare), row.Injections)
	}
	return t.String()
}

// ExtCheckpointRow is one benchmark's checkpoint sizing.
type ExtCheckpointRow struct {
	Name      string
	CrashRate float64
	MTBF      time.Duration
	Interval  time.Duration
	Overhead  float64
}

// ExtCheckpointResult demonstrates the §VIII use case: the crash-specific
// bit fraction sizes the Young-optimal checkpoint interval; PVF-wide rates
// would over-checkpoint because non-crash faults never trigger rollbacks.
type ExtCheckpointResult struct {
	Rows []ExtCheckpointRow
	// RawBitFaultsPerHour and CheckpointCost are the assumed system
	// parameters.
	RawBitFaultsPerHour float64
	CheckpointCost      time.Duration
}

// ExtCheckpoint sizes checkpoint intervals from each benchmark's modelled
// crash rate.
func ExtCheckpoint(s *Suite) (*ExtCheckpointResult, error) {
	res := &ExtCheckpointResult{
		RawBitFaultsPerHour: 0.05, // one raw register fault every 20 hours
		CheckpointCost:      30 * time.Second,
	}
	err := s.ForEach(func(r *BenchResult) error {
		p := checkpoint.Params{
			CrashRate:           r.Analysis.CrashRate(),
			RawBitFaultsPerHour: res.RawBitFaultsPerHour,
			CheckpointCost:      res.CheckpointCost,
		}
		mtbf, err := checkpoint.CrashMTBF(p)
		if err != nil {
			return err
		}
		interval, err := checkpoint.OptimalInterval(p)
		if err != nil {
			return err
		}
		ovh, err := checkpoint.ExpectedOverhead(p, interval)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, ExtCheckpointRow{
			Name:      r.Bench.Name,
			CrashRate: p.CrashRate,
			MTBF:      mtbf,
			Interval:  interval,
			Overhead:  ovh,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the checkpoint sizing.
func (r *ExtCheckpointResult) Render() string {
	t := report.NewTable("Extension: ePVF-informed checkpoint sizing (§VIII)",
		"Benchmark", "Crash rate", "Crash MTBF", "Young interval", "Overhead")
	for _, row := range r.Rows {
		t.AddRow(row.Name, report.Percent(row.CrashRate),
			row.MTBF.Round(time.Minute).String(),
			row.Interval.Round(time.Second).String(),
			report.Percent(row.Overhead))
	}
	return t.String()
}
