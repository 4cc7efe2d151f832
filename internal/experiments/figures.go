package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/protect"
	"repro/internal/report"
	"repro/internal/stats"
)

// Fig5Row is one benchmark's fault-injection outcome distribution.
type Fig5Row struct {
	Name                     string
	Crash, SDC, Hang, Benign float64
	CrashCI, SDCCI           float64 // 95% CI half widths
	Runs                     int
}

// Fig5Result reproduces Figure 5: outcome frequency per benchmark.
type Fig5Result struct {
	Rows     []Fig5Row
	AvgCrash float64
	AvgSDC   float64
}

// Fig5 tallies campaign outcomes.
func Fig5(s *Suite) (*Fig5Result, error) {
	res := &Fig5Result{}
	err := s.ForEach(func(r *BenchResult) error {
		n := len(r.Campaign.Records)
		row := Fig5Row{
			Name:   r.Bench.Name,
			Crash:  r.Campaign.Rate(fi.OutcomeCrash),
			SDC:    r.Campaign.Rate(fi.OutcomeSDC),
			Hang:   r.Campaign.Rate(fi.OutcomeHang),
			Benign: r.Campaign.Rate(fi.OutcomeBenign),
			Runs:   n,
		}
		row.CrashCI = stats.Proportion{Successes: r.Campaign.Counts[fi.OutcomeCrash], N: n}.HalfWidth()
		row.SDCCI = stats.Proportion{Successes: r.Campaign.Counts[fi.OutcomeSDC], N: n}.HalfWidth()
		res.Rows = append(res.Rows, row)
		res.AvgCrash += row.Crash
		res.AvgSDC += row.SDC
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) > 0 {
		res.AvgCrash /= float64(len(res.Rows))
		res.AvgSDC /= float64(len(res.Rows))
	}
	return res, nil
}

// Render prints Figure 5 as a table with CIs.
func (r *Fig5Result) Render() string {
	t := report.NewTable("Figure 5: Fault-injection outcome frequency",
		"Benchmark", "Crash", "SDC", "Hang", "Benign", "±Crash", "±SDC", "runs")
	for _, row := range r.Rows {
		t.AddRow(row.Name, report.Percent(row.Crash), report.Percent(row.SDC),
			report.Percent(row.Hang), report.Percent(row.Benign),
			report.Percent(row.CrashCI), report.Percent(row.SDCCI), row.Runs)
	}
	t.AddRow("AVERAGE", report.Percent(r.AvgCrash), report.Percent(r.AvgSDC), "", "", "", "", "")
	return t.String()
}

// Fig6Row is one benchmark's recall.
type Fig6Row struct {
	Name    string
	Recall  float64
	Crashes int
}

// Fig6Result reproduces Figure 6: recall of crash prediction.
type Fig6Result struct {
	Rows []Fig6Row
	Avg  float64
}

// Fig6 measures recall against each benchmark's campaign.
func Fig6(s *Suite) (*Fig6Result, error) {
	res := &Fig6Result{}
	err := s.ForEach(func(r *BenchResult) error {
		recall, n := fi.MeasureRecall(r.Campaign.Records, r.Analysis.CrashResult)
		res.Rows = append(res.Rows, Fig6Row{Name: r.Bench.Name, Recall: recall, Crashes: n})
		res.Avg += recall
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) > 0 {
		res.Avg /= float64(len(res.Rows))
	}
	return res, nil
}

// Render prints Figure 6.
func (r *Fig6Result) Render() string {
	t := report.NewTable("Figure 6: Recall of crash-causing bit prediction",
		"Benchmark", "Recall", "Crash runs")
	for _, row := range r.Rows {
		t.AddRow(row.Name, report.Percent(row.Recall), row.Crashes)
	}
	t.AddRow("AVERAGE", report.Percent(r.Avg), "")
	return t.String()
}

// Fig7Row is one benchmark's precision.
type Fig7Row struct {
	Name      string
	Precision float64
	Samples   int
}

// Fig7Result reproduces Figure 7: precision of crash prediction via
// targeted injection into predicted crash bits.
type Fig7Result struct {
	Rows []Fig7Row
	Avg  float64
}

// Fig7 measures precision per benchmark.
func Fig7(s *Suite) (*Fig7Result, error) {
	res := &Fig7Result{}
	err := s.ForEach(func(r *BenchResult) error {
		p, n := fi.MeasurePrecision(r.Module, r.Golden, r.Analysis.CrashResult,
			s.Cfg.PrecisionSamples, fi.Config{Seed: s.Cfg.Seed + 1, JitterWindow: s.Cfg.Jitter})
		res.Rows = append(res.Rows, Fig7Row{Name: r.Bench.Name, Precision: p, Samples: n})
		res.Avg += p
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) > 0 {
		res.Avg /= float64(len(res.Rows))
	}
	return res, nil
}

// Render prints Figure 7.
func (r *Fig7Result) Render() string {
	t := report.NewTable("Figure 7: Precision of crash-causing bit prediction",
		"Benchmark", "Precision", "Targeted injections")
	for _, row := range r.Rows {
		t.AddRow(row.Name, report.Percent(row.Precision), row.Samples)
	}
	t.AddRow("AVERAGE", report.Percent(r.Avg), "")
	return t.String()
}

// Fig8Row compares model-estimated and measured crash rates.
type Fig8Row struct {
	Name      string
	ModelRate float64
	FIRate    float64
	FILo      float64
	FIHi      float64
}

// Fig8Result reproduces Figure 8: crash rate, model vs fault injection.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 compares the model crash estimate with the campaign.
func Fig8(s *Suite) (*Fig8Result, error) {
	res := &Fig8Result{}
	err := s.ForEach(func(r *BenchResult) error {
		p := stats.Proportion{Successes: r.Campaign.Counts[fi.OutcomeCrash], N: len(r.Campaign.Records)}
		lo, hi := p.WilsonCI()
		res.Rows = append(res.Rows, Fig8Row{
			Name:      r.Bench.Name,
			ModelRate: r.Analysis.CrashRate(),
			FIRate:    p.Rate(),
			FILo:      lo,
			FIHi:      hi,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints Figure 8.
func (r *Fig8Result) Render() string {
	t := report.NewTable("Figure 8: Crash rate — ePVF model vs fault injection (95% CI)",
		"Benchmark", "Model", "FI", "FI lo", "FI hi", "InCI")
	for _, row := range r.Rows {
		in := "yes"
		if row.ModelRate < row.FILo-0.05 || row.ModelRate > row.FIHi+0.05 {
			in = "no"
		}
		t.AddRow(row.Name, report.Percent(row.ModelRate), report.Percent(row.FIRate),
			report.Percent(row.FILo), report.Percent(row.FIHi), in)
	}
	return t.String()
}

// Fig9Row compares the PVF and ePVF upper bounds with the measured SDC
// rate.
type Fig9Row struct {
	Name    string
	PVF     float64
	EPVF    float64
	SDCRate float64
	SDCCI   float64
	// Reduction is (PVF-ePVF)/PVF — the paper reports 45–67%.
	Reduction float64
}

// Fig9Result reproduces Figure 9.
type Fig9Result struct {
	Rows         []Fig9Row
	AvgReduction float64
}

// Fig9 compares PVF, ePVF and the FI SDC rate.
func Fig9(s *Suite) (*Fig9Result, error) {
	res := &Fig9Result{}
	err := s.ForEach(func(r *BenchResult) error {
		p := stats.Proportion{Successes: r.Campaign.Counts[fi.OutcomeSDC], N: len(r.Campaign.Records)}
		row := Fig9Row{
			Name:      r.Bench.Name,
			PVF:       r.Analysis.PVF(),
			EPVF:      r.Analysis.EPVF(),
			SDCRate:   p.Rate(),
			SDCCI:     p.HalfWidth(),
			Reduction: r.Analysis.VulnerableBitReduction(),
		}
		res.Rows = append(res.Rows, row)
		res.AvgReduction += row.Reduction
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) > 0 {
		res.AvgReduction /= float64(len(res.Rows))
	}
	return res, nil
}

// Render prints Figure 9.
func (r *Fig9Result) Render() string {
	t := report.NewTable("Figure 9: PVF vs ePVF vs measured SDC rate",
		"Benchmark", "PVF", "ePVF", "SDC rate", "±SDC", "PVF reduction")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.PVF, row.EPVF, report.Percent(row.SDCRate),
			report.Percent(row.SDCCI), report.Percent(row.Reduction))
	}
	t.AddRow("AVERAGE", "", "", "", "", report.Percent(r.AvgReduction))
	return t.String()
}

// Fig10Row is one benchmark's analysis-time breakdown.
type Fig10Row struct {
	Name       string
	GraphBuild float64 // seconds
	Models     float64 // seconds
}

// Fig10Result reproduces Figure 10: execution-time breakdown between graph
// construction and the crash/propagation models.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 collects phase timings.
func Fig10(s *Suite) (*Fig10Result, error) {
	res := &Fig10Result{}
	err := s.ForEach(func(r *BenchResult) error {
		res.Rows = append(res.Rows, Fig10Row{
			Name:       r.Bench.Name,
			GraphBuild: r.Analysis.Timing.GraphBuild.Seconds(),
			Models:     r.Analysis.Timing.Models.Seconds(),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints Figure 10.
func (r *Fig10Result) Render() string {
	c := report.NewChart("Figure 10: Analysis time — graph construction vs models (seconds)")
	for _, row := range r.Rows {
		c.Add(report.Series{Name: row.Name,
			Labels: []string{"graph", "models"},
			Values: []float64{row.GraphBuild, row.Models}})
	}
	return c.String()
}

// Fig11Row compares sampled and full ePVF.
type Fig11Row struct {
	Name    string
	Full    float64
	Sampled float64
	// NormVar is the §IV-E regularity indicator from 1% subsamples.
	NormVar float64
}

// Fig11Result reproduces Figure 11: ePVF from 10% ACE-graph sampling vs
// the full analysis.
type Fig11Result struct {
	Rows   []Fig11Row
	AvgErr float64
}

// Fig11 runs the sampling estimator.
func Fig11(s *Suite) (*Fig11Result, error) {
	res := &Fig11Result{}
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 2))
	err := s.ForEach(func(r *BenchResult) error {
		sampled := epvf.SampledEstimate(r.Analysis.Trace, 0.10, epvf.Config{})
		nv := epvf.SamplingVariance(r.Analysis.Trace, 0.01, 5, rng, epvf.Config{})
		row := Fig11Row{Name: r.Bench.Name, Full: r.Analysis.EPVF(), Sampled: sampled, NormVar: nv}
		res.Rows = append(res.Rows, row)
		err := row.Full - row.Sampled
		if err < 0 {
			err = -err
		}
		res.AvgErr += err
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) > 0 {
		res.AvgErr /= float64(len(res.Rows))
	}
	return res, nil
}

// Render prints Figure 11.
func (r *Fig11Result) Render() string {
	t := report.NewTable("Figure 11: ePVF from 10% ACE-graph sampling vs full analysis",
		"Benchmark", "Full ePVF", "Sampled ePVF", "Abs error", "NormVar (1% samples)")
	for _, row := range r.Rows {
		diff := row.Full - row.Sampled
		if diff < 0 {
			diff = -diff
		}
		t.AddRow(row.Name, row.Full, row.Sampled, diff, row.NormVar)
	}
	t.AddRow("MEAN ABS ERROR", "", "", r.AvgErr, "")
	return t.String()
}

// Fig12Series is the per-instruction CDF of one metric on one benchmark.
type Fig12Series struct {
	Bench  string
	Metric string
	CDF    []stats.CDFPoint
	// FracAbove90 is the fraction of instructions with metric > 0.9 — the
	// "spike near 1" indicator.
	FracAbove90 float64
}

// Fig12Result reproduces Figure 12: CDFs of per-instruction PVF and ePVF
// for nw and lud, showing that PVF clusters near 1 while ePVF
// discriminates.
type Fig12Result struct {
	Series []Fig12Series
}

// Fig12 computes the per-instruction CDFs.
func Fig12(s *Suite) (*Fig12Result, error) {
	res := &Fig12Result{}
	for _, name := range []string{"nw", "lud"} {
		var target *BenchResult
		err := s.ForEach(func(r *BenchResult) error {
			if r.Bench.Name == name {
				target = r
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if target == nil {
			continue
		}
		per := target.Analysis.PerInstruction()
		var pvfs, epvfs []float64
		for _, v := range per {
			if v.TotalBits == 0 {
				continue
			}
			pvfs = append(pvfs, v.PVF())
			epvfs = append(epvfs, v.EPVF())
		}
		res.Series = append(res.Series,
			Fig12Series{Bench: name, Metric: "PVF", CDF: stats.CDF(pvfs), FracAbove90: fracAbove(pvfs, 0.9)},
			Fig12Series{Bench: name, Metric: "ePVF", CDF: stats.CDF(epvfs), FracAbove90: fracAbove(epvfs, 0.9)},
		)
	}
	return res, nil
}

func fracAbove(xs []float64, thr float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > thr {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Render prints Figure 12 as CDF values at fixed thresholds.
func (r *Fig12Result) Render() string {
	thresholds := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99}
	cols := []string{"Benchmark", "Metric"}
	for _, th := range thresholds {
		cols = append(cols, fmt.Sprintf("P(x<=%.2f)", th))
	}
	cols = append(cols, "frac>0.9")
	t := report.NewTable("Figure 12: CDF of per-instruction PVF and ePVF (nw, lud)", cols...)
	for _, se := range r.Series {
		row := []any{se.Bench, se.Metric}
		for _, th := range thresholds {
			row = append(row, stats.CDFAt(se.CDF, th))
		}
		row = append(row, se.FracAbove90)
		t.AddRow(row...)
	}
	return t.String()
}

// Fig13Row is one benchmark's §V case-study outcome.
type Fig13Row struct {
	Name string
	// SDC rates under no protection, hot-path duplication, ePVF-guided
	// duplication (the paper's heuristic), and cost-aware ePVF-density
	// duplication, all within the same overhead budget.
	BaseSDC, HotSDC, EPVFSDC, DensSDC float64
	// Detected rates under the three schemes.
	HotDetected, EPVFDetected, DensDetected float64
	// Measured dynamic-instruction overheads of the three schemes.
	HotOverhead, EPVFOverhead, DensOverhead float64
}

// Fig13Result reproduces Figure 13: the selective-duplication case study.
type Fig13Result struct {
	Rows []Fig13Row
	// Geometric means over the suite, as the paper aggregates.
	GeoBase, GeoHot, GeoEPVF, GeoDens float64
}

// Fig13 runs the §V case study over the SDC-prone benchmarks: rankings are
// computed on the analysis input (Scale), protection applied by static ID
// to a larger-input build (CaseStudyScale), and all three variants undergo
// identical campaigns.
func Fig13(s *Suite) (*Fig13Result, error) {
	res := &Fig13Result{}
	var bases, hots, epvfs, denss []float64
	for _, b := range benchIntersect(s.Cfg.benchmarks()) {
		r, err := s.Bench(b)
		if err != nil {
			return nil, err
		}
		per := r.Analysis.PerInstruction()
		hotSel := protect.Plan(protect.RankByFrequency(per), per, r.Golden.DynInstrs, s.Cfg.OverheadBudget)
		epvfSel := protect.Plan(protect.RankByEPVF(per), per, r.Golden.DynInstrs, s.Cfg.OverheadBudget)
		densSel := protect.Plan(protect.RankByEPVFDensity(per), per, r.Golden.DynInstrs, s.Cfg.OverheadBudget)

		variant := func(label string, ids []int) (*campaign.Result, float64, error) {
			m, err := b.Module(s.Cfg.CaseStudyScale)
			if err != nil {
				return nil, 0, err
			}
			if ids != nil {
				if err := protect.ApplyByID(m, ids); err != nil {
					return nil, 0, err
				}
			}
			golden, err := epvf.Profile(m, interp.Config{})
			if err != nil {
				return nil, 0, err
			}
			if golden.Exception != nil {
				return nil, 0, fmt.Errorf("protected golden run of %s failed: %v", b.Name, golden.Exception)
			}
			camp, err := s.runCampaign(b.Name+"-"+label, m, golden, fi.Config{
				Seed: s.Cfg.Seed + 3, JitterWindow: s.Cfg.Jitter,
			})
			if err != nil {
				return nil, 0, err
			}
			return camp, float64(golden.DynInstrs), nil
		}

		baseCamp, baseDyn, err := variant("base", nil)
		if err != nil {
			return nil, err
		}
		hotCamp, hotDyn, err := variant("hot", protect.IDsOf(hotSel))
		if err != nil {
			return nil, err
		}
		epvfCamp, epvfDyn, err := variant("epvf", protect.IDsOf(epvfSel))
		if err != nil {
			return nil, err
		}
		densCamp, densDyn, err := variant("dens", protect.IDsOf(densSel))
		if err != nil {
			return nil, err
		}
		row := Fig13Row{
			Name:         b.Name,
			BaseSDC:      baseCamp.Rate(fi.OutcomeSDC),
			HotSDC:       hotCamp.Rate(fi.OutcomeSDC),
			EPVFSDC:      epvfCamp.Rate(fi.OutcomeSDC),
			DensSDC:      densCamp.Rate(fi.OutcomeSDC),
			HotDetected:  hotCamp.Rate(fi.OutcomeDetected),
			EPVFDetected: epvfCamp.Rate(fi.OutcomeDetected),
			DensDetected: densCamp.Rate(fi.OutcomeDetected),
			HotOverhead:  hotDyn/baseDyn - 1,
			EPVFOverhead: epvfDyn/baseDyn - 1,
			DensOverhead: densDyn/baseDyn - 1,
		}
		res.Rows = append(res.Rows, row)
		bases = append(bases, row.BaseSDC)
		hots = append(hots, row.HotSDC)
		epvfs = append(epvfs, row.EPVFSDC)
		denss = append(denss, row.DensSDC)
	}
	res.GeoBase = stats.GeoMean(bases)
	res.GeoHot = stats.GeoMean(hots)
	res.GeoEPVF = stats.GeoMean(epvfs)
	res.GeoDens = stats.GeoMean(denss)
	return res, nil
}

// benchIntersect returns the SDC-prone case-study benchmarks restricted to
// the configured suite.
func benchIntersect(configured []*bench.Benchmark) []*bench.Benchmark {
	inSuite := make(map[string]bool, len(configured))
	for _, b := range configured {
		inSuite[b.Name] = true
	}
	var out []*bench.Benchmark
	for _, b := range bench.SDCProne5() {
		if inSuite[b.Name] {
			out = append(out, b)
		}
	}
	return out
}

// Render prints Figure 13.
func (r *Fig13Result) Render() string {
	t := report.NewTable("Figure 13: SDC rate under selective duplication (fixed overhead budget)",
		"Benchmark", "No protection", "Hot-path", "ePVF", "ePVF-density",
		"Hot det.", "ePVF det.", "Dens det.", "Hot ovh", "ePVF ovh", "Dens ovh")
	for _, row := range r.Rows {
		t.AddRow(row.Name, report.Percent(row.BaseSDC), report.Percent(row.HotSDC),
			report.Percent(row.EPVFSDC), report.Percent(row.DensSDC),
			report.Percent(row.HotDetected), report.Percent(row.EPVFDetected),
			report.Percent(row.DensDetected), report.Percent(row.HotOverhead),
			report.Percent(row.EPVFOverhead), report.Percent(row.DensOverhead))
	}
	t.AddRow("GEOMEAN", report.Percent(r.GeoBase), report.Percent(r.GeoHot),
		report.Percent(r.GeoEPVF), report.Percent(r.GeoDens), "", "", "", "", "", "")
	return t.String()
}
