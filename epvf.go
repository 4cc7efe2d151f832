// Package epvf is the public API of the ePVF reproduction: an
// implementation of "ePVF: An Enhanced Program Vulnerability Factor
// Methodology for Cross-Layer Resilience Analysis" (DSN 2016) on a fully
// simulated substrate — a mini LLVM-like IR, a C-like front end, a
// simulated Linux process (VMAs, heap, growable stack), an interpreter
// with hardware-exception semantics, an LLFI-style fault injector, the
// crash and range-propagation models, and the selective-duplication
// protection pass.
//
// The typical workflow:
//
//	m, err := epvf.CompileMiniC("kernel", src)   // or epvf.Benchmark("mm", 1)
//	res, err := epvf.Analyze(m)                  // PVF, ePVF, crash bits
//	camp, err := epvf.Campaign(m, res.Golden, epvf.CampaignConfig{Runs: 3000})
//
// Deeper control lives in the internal packages re-exported through the
// type aliases below; see DESIGN.md for the architecture and
// EXPERIMENTS.md for the paper-vs-measured results.
package epvf

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/ddg"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/protect"
)

// Aliases re-exporting the core model types, so the full internal API is
// reachable from the public package.
type (
	// Module is a compiled IR translation unit.
	Module = ir.Module
	// Instr is a static IR instruction.
	Instr = ir.Instr
	// Analysis is a complete ePVF analysis of one execution.
	Analysis = epvf.Analysis
	// InstrVuln is the per-static-instruction vulnerability (Eq. 3).
	InstrVuln = epvf.InstrVuln
	// RunResult is the outcome of one interpreted execution.
	RunResult = interp.Result
	// CampaignResult aggregates a fault-injection campaign.
	CampaignResult = fi.Result
	// CampaignConfig controls a fault-injection campaign.
	CampaignConfig = fi.Config
	// Outcome classifies one fault-injection run.
	Outcome = fi.Outcome
	// Layout fixes the simulated process memory layout.
	Layout = mem.Layout
)

// Fault-injection outcome values.
const (
	OutcomeBenign   = fi.OutcomeBenign
	OutcomeCrash    = fi.OutcomeCrash
	OutcomeSDC      = fi.OutcomeSDC
	OutcomeHang     = fi.OutcomeHang
	OutcomeDetected = fi.OutcomeDetected
)

// CompileMiniC compiles a MiniC source file into an IR module. MiniC is
// the C-like language the benchmark suite is written in (see
// internal/lang).
func CompileMiniC(name, src string) (*Module, error) {
	return lang.Compile(name, src)
}

// Benchmark compiles one of the built-in paper benchmarks (Table IV) at
// the given input scale (1 is the default evaluation size).
func Benchmark(name string, scale int) (*Module, error) {
	b, ok := bench.Get(name)
	if !ok {
		return nil, fmt.Errorf("epvf: unknown benchmark %q", name)
	}
	return b.Module(scale)
}

// BenchmarkNames lists the built-in benchmarks in Table IV order.
func BenchmarkNames() []string { return bench.Names() }

// Result bundles the golden run with its analysis.
type Result struct {
	// Analysis holds PVF, ePVF, the ACE graph and the crash-bit list.
	Analysis *Analysis
	// Golden is the recorded fault-free execution.
	Golden *RunResult
}

// Analyze profiles the module (one recorded golden execution) and runs the
// full ePVF methodology: ACE analysis, crash model and propagation model.
func Analyze(m *Module) (*Result, error) {
	a, golden, err := epvf.AnalyzeModule(m, epvf.Config{})
	if err != nil {
		return nil, err
	}
	return &Result{Analysis: a, Golden: golden}, nil
}

// Run executes the module's main function on the simulated machine and
// returns its outputs and termination state.
func Run(m *Module) (*RunResult, error) {
	return interp.Run(m, interp.Config{})
}

// Campaign performs an LLFI-style fault-injection campaign against the
// module: cfg.Runs single-bit register flips, each classified as crash,
// SDC, hang, benign or detected. golden must come from Analyze (or any
// recorded run of the same module).
func Campaign(m *Module, golden *RunResult, cfg CampaignConfig) (*CampaignResult, error) {
	return fi.RunCampaign(m, golden, cfg)
}

// Accuracy reports how well the analysis predicts real crashes, in the
// paper's two measures.
type Accuracy struct {
	// Recall is the fraction of observed crash injections whose target
	// appears in the predicted crash-bit list (paper: 89% average).
	Recall float64
	// RecallN is the number of crash runs behind the recall estimate.
	RecallN int
	// Precision is the fraction of predicted crash bits that actually
	// crash under targeted injection (paper: 92% average).
	Precision float64
	// PrecisionN is the number of targeted injections performed.
	PrecisionN int
}

// MeasureAccuracy evaluates the crash model against ground truth: recall
// from the campaign's crash runs and precision from targeted injections
// into predicted crash bits.
func MeasureAccuracy(m *Module, res *Result, camp *CampaignResult, targeted int, cfg CampaignConfig) Accuracy {
	var acc Accuracy
	acc.Recall, acc.RecallN = fi.MeasureRecall(camp.Records, res.Analysis.CrashResult)
	acc.Precision, acc.PrecisionN = fi.MeasurePrecision(m, res.Golden, res.Analysis.CrashResult, targeted, cfg)
	return acc
}

// ProtectionScheme selects the instruction-ranking heuristic for selective
// duplication.
type ProtectionScheme int

// Protection schemes.
const (
	// ProtectByEPVF ranks instructions by their ePVF values (the paper's
	// §V heuristic).
	ProtectByEPVF ProtectionScheme = iota + 1
	// ProtectByHotPath ranks instructions by execution frequency (the
	// baseline the paper compares against).
	ProtectByHotPath
	// ProtectByEPVFDensity ranks by SDC-prone bit mass per unit of
	// protection cost — the cost-aware refinement of the ePVF heuristic,
	// which packs the most SDC coverage into a fixed budget.
	ProtectByEPVFDensity
)

// Protect applies selective duplication to the module in place: the
// highest-ranked instructions (under the chosen scheme) are shadowed and
// checked until the estimated dynamic-instruction overhead reaches budget
// (e.g. 0.24 for the paper's 24% bound). It returns the static IDs of the
// protected instructions, which can be replayed onto a structurally
// identical module (e.g. a larger-input build) with ProtectByIDs.
func Protect(m *Module, res *Result, scheme ProtectionScheme, budget float64) ([]int, error) {
	per := res.Analysis.PerInstruction()
	var ranking protect.Ranking
	switch scheme {
	case ProtectByEPVF:
		ranking = protect.RankByEPVF(per)
	case ProtectByHotPath:
		ranking = protect.RankByFrequency(per)
	case ProtectByEPVFDensity:
		ranking = protect.RankByEPVFDensity(per)
	default:
		return nil, fmt.Errorf("epvf: unknown protection scheme %d", int(scheme))
	}
	selected := protect.Plan(ranking, per, res.Golden.DynInstrs, budget)
	// Capture the plan's static IDs before Apply re-finalizes the module
	// (instrumentation shifts instruction IDs).
	ids := protect.IDsOf(selected)
	if err := protect.Apply(m, selected); err != nil {
		return nil, err
	}
	return ids, nil
}

// ProtectByIDs replays a protection plan (from Protect) onto another
// compile of the same program.
func ProtectByIDs(m *Module, ids []int) error {
	return protect.ApplyByID(m, ids)
}

// PrintIR renders the module in LLVM-like textual form.
func PrintIR(m *Module) string { return ir.Print(m) }

// ParseIR reads a module back from PrintIR's textual form; the pair is a
// lossless round trip.
func ParseIR(src string) (*Module, error) { return ir.Parse(src) }

// DotDDG renders the first maxEvents dynamic instructions of the analyzed
// run's dependence graph in Graphviz DOT form: ACE events are highlighted
// and registers with predicted crash bits are marked. Intended for
// inspecting small kernels.
func DotDDG(res *Result, maxEvents int64) string {
	return res.Analysis.Graph.Dot(ddg.DotOptions{
		MaxEvents: maxEvents,
		ACEMask:   res.Analysis.ACEMask,
		CrashDefs: res.Analysis.CrashResult.DefMask,
	})
}

// SampledEPVF estimates the program's ePVF from partial ACE graphs rooted
// at the given fraction of output nodes, linearly extrapolated (§IV-E of
// the paper; Figure 11). Substantially cheaper than the full analysis for
// large traces, and accurate for applications with repetitive behaviour.
func SampledEPVF(res *Result, frac float64) float64 {
	return epvf.SampledEstimate(res.Analysis.Trace, frac, epvf.Config{})
}

// SamplingVariance estimates whether ACE-graph sampling will be accurate
// for this program: the normalized variance of ePVF estimates from
// `rounds` random 1%-of-outputs subsamples (low values indicate the
// repetitive behaviour sampling relies on). seed makes the estimate
// deterministic.
func SamplingVariance(res *Result, rounds int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return epvf.SamplingVariance(res.Analysis.Trace, 0.01, rounds, rng, epvf.Config{})
}
