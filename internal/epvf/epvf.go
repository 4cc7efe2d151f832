// Package epvf computes the PVF and ePVF metrics of a recorded execution
// (paper Equations 1–3): PVF over the "used registers" resource — every
// register operand read by every dynamic instruction — and ePVF, which
// subtracts from the ACE bits the crash-causing bits identified by the
// crash and propagation models. It also provides the per-static-instruction
// vulnerability used to drive selective protection (§V) and the ACE-graph
// sampling estimator (§IV-E).
package epvf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/crash"
	"repro/internal/ddg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/rangeprop"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Config controls an analysis.
type Config struct {
	// Prop configures the propagation model.
	Prop rangeprop.Config
	// Interp configures the profiling run when analyzing a module. A
	// zero MaxDynInstrs means MaxGoldenEvents.
	Interp interp.Config
	// Engine is only for an independent reference analysis: "walker"
	// records on the frame-stack walker (interp.Run) instead of Profile,
	// so the reference shares no compiled code with the analysis it
	// checks. The benchmark's daemon render check (perfbench/serve.go)
	// sets it; every other caller leaves it empty.
	Engine string
}

// Timing breaks the analysis down the way Figure 10 does.
type Timing struct {
	// GraphBuild covers the profiled execution plus DDG/ACE construction.
	GraphBuild time.Duration
	// Models covers the crash and propagation models.
	Models time.Duration
}

// Analysis is the result of an ePVF run.
type Analysis struct {
	Trace   *trace.Trace
	Graph   *ddg.Graph
	ACEMask []bool

	// TotalBits is B_R x |I|: the bit count of every register defined in
	// the trace — each register counted once, as in the paper's running
	// example.
	TotalBits int64
	// ACEBits is the bit count of registers defined by ACE-graph
	// instructions.
	ACEBits int64
	// CrashResult holds the CRASHING_BIT_LIST.
	CrashResult *rangeprop.Result

	// ACENodes is the number of events in the ACE graph (Table V).
	ACENodes int64

	Timing Timing
}

// PVF returns the classic Program Vulnerability Factor (Eq. 1).
func (a *Analysis) PVF() float64 {
	if a.TotalBits == 0 {
		return 0
	}
	return float64(a.ACEBits) / float64(a.TotalBits)
}

// EPVF returns the enhanced PVF (Eq. 2): ACE bits minus crash bits over
// total bits.
func (a *Analysis) EPVF() float64 {
	if a.TotalBits == 0 {
		return 0
	}
	return float64(a.ACEBits-a.CrashResult.CrashBitCount) / float64(a.TotalBits)
}

// CrashRate returns the model's crash-rate estimate: the fraction of
// register bits whose corruption is predicted to crash (§IV-C).
func (a *Analysis) CrashRate() float64 {
	if a.TotalBits == 0 {
		return 0
	}
	return float64(a.CrashResult.CrashBitCount) / float64(a.TotalBits)
}

// VulnerableBitReduction returns how much ePVF tightens PVF:
// (PVF - ePVF) / PVF (the paper reports 45–67%).
func (a *Analysis) VulnerableBitReduction() float64 {
	p := a.PVF()
	if p == 0 {
		return 0
	}
	return (p - a.EPVF()) / p
}

// AnalyzeTrace runs the ACE, crash and propagation analyses over an
// already-recorded trace.
func AnalyzeTrace(tr *trace.Trace, cfg Config) *Analysis {
	root := obs.StartSpan("epvf_analyze_trace")
	t0 := time.Now()
	sp := root.Child("epvf_ddg_ace")
	g := ddg.New(tr)
	aceMask := g.ACEMask()
	a := &Analysis{Trace: tr, Graph: g, ACEMask: aceMask}
	a.TotalBits, a.ACEBits = defBits(tr, aceMask)
	a.ACENodes = ddg.CountMask(aceMask)
	sp.Add("events", int64(tr.NumEvents()))
	sp.Add("ace_nodes", a.ACENodes)
	sp.Add("ace_bits", a.ACEBits)
	sp.End()
	t1 := time.Now()
	sp = root.Child("epvf_models")
	a.CrashResult = rangeprop.Analyze(tr, g, aceMask, cfg.Prop)
	sp.Add("crash_bits", a.CrashResult.CrashBitCount)
	sp.End()
	a.Timing.GraphBuild = t1.Sub(t0)
	a.Timing.Models = time.Since(t1)
	root.End()
	if r := obs.Default(); r != nil {
		r.Counter("epvf_epvf_analyses_total").Inc()
		r.Counter("epvf_epvf_ace_nodes_total").Add(a.ACENodes)
		r.Counter("epvf_epvf_ace_bits_total").Add(a.ACEBits)
		r.Counter("epvf_epvf_crash_bits_total").Add(a.CrashResult.CrashBitCount)
	}
	return a
}

// AnalyzeModule profiles the module (recorded golden run) and analyzes the
// resulting trace. The profiling time is charged to GraphBuild, matching
// the paper's cost accounting.
func AnalyzeModule(m *ir.Module, cfg Config) (*Analysis, *interp.Result, error) {
	t0 := time.Now()
	icfg := goldenConfig(cfg.Interp)
	profile := Profile
	if cfg.Engine == "walker" {
		profile = interp.Run
	}
	res, err := completed(profile(m, icfg))
	if err != nil {
		return nil, nil, err
	}
	buildTime := time.Since(t0)
	a := AnalyzeTrace(res.Trace, cfg)
	a.Timing.GraphBuild += buildTime
	return a, res, nil
}

// ErrHang reports a golden run that exhausted its instruction budget
// (interp.Config.MaxDynInstrs, MaxGoldenEvents by default, and never more
// than trace.MaxBudget, the most a trace can index). Its trace is a
// truncated prefix, not a profile of the program, so no analysis runs on
// it.
var ErrHang = errors.New("golden run exhausted its instruction budget")

// MaxGoldenEvents is the default budget of a golden run, in dynamic
// instructions (one trace event each), for every caller that leaves
// interp.Config.MaxDynInstrs zero: the CLIs, the experiments and the
// daemon. An analysis holds at most about 95 B per event at its peak
// (peak live heap of AnalyzeModule: 94 B on lavamd at scale 2, 78 B on a
// spinning loop at 1M events), so the budget caps one analysis near
// 190 MB. Every built-in kernel fits at scales 1 and 2 (the
// largest, lavamd at scale 2, records 917,845 events). A module that runs
// longer fails with ErrHang.
//
// The other limit on what can be analyzed is the VM's: a function whose
// register file needs more than 16,384 slots fails vm.Compile with
// vm.ErrUnsupported (the largest kernel function needs 651).
const MaxGoldenEvents = 2_000_000

// goldenConfig returns icfg set up for a golden run: recording, under
// MaxGoldenEvents unless a budget is given.
func goldenConfig(icfg interp.Config) interp.Config {
	icfg.Record = true
	if icfg.MaxDynInstrs == 0 {
		icfg.MaxDynInstrs = MaxGoldenEvents
	}
	return icfg
}

// completed passes through a golden run that ended, and turns one that
// hung into ErrHang.
func completed(res *interp.Result, err error) (*interp.Result, error) {
	if err == nil && res.Hang {
		return nil, fmt.Errorf("%w after %d instructions", ErrHang, res.DynInstrs)
	}
	return res, err
}

// Profile records the golden trace of m under icfg (Record is forced on,
// and a zero MaxDynInstrs means MaxGoldenEvents): the one profiling step
// of every analysis path. It runs the module on the bytecode VM. A module
// vm.Compile rejects, a fatal error during the run, and a run that
// exhausts the budget (ErrHang) are errors.
func Profile(m *ir.Module, icfg interp.Config) (*interp.Result, error) {
	sp := obs.StartSpan("epvf_profile")
	defer sp.End()
	prog, err := vm.Compile(m, vm.Options{})
	if err != nil {
		return nil, err
	}
	res, err := completed(prog.Run(goldenConfig(icfg)))
	if err != nil {
		return nil, err
	}
	sp.Add("dyn_instrs", res.DynInstrs)
	return res, nil
}

// Compose assembles an Analysis around an externally merged propagation
// result — the composition step of the incremental layer (internal/inc).
// The DDG-derived numerators (TotalBits, ACEBits, ACENodes) are recomputed
// from the trace, which is cheap; cr must hold the union of all walks'
// crash masks with Finalize already applied. Timing is left zero for the
// caller to fill.
func Compose(tr *trace.Trace, g *ddg.Graph, aceMask []bool, cr *rangeprop.Result) *Analysis {
	a := &Analysis{Trace: tr, Graph: g, ACEMask: aceMask, CrashResult: cr}
	a.TotalBits, a.ACEBits = defBits(tr, aceMask)
	a.ACENodes = ddg.CountMask(aceMask)
	return a
}

// defBits tallies the denominator and ACE numerator of Eq. 1: the bit
// widths of every register defined in the trace, and of those defined by
// ACE-graph events.
func defBits(tr *trace.Trace, aceMask []bool) (total, ace int64) {
	instrs := tr.Instrs()
	for i, id := range tr.InstrID {
		in := instrs[id]
		if !trace.IsDef(in) {
			continue
		}
		w := int64(trace.DefWidth(in))
		total += w
		if aceMask[i] {
			ace += w
		}
	}
	return total, ace
}

// DefClass is the per-bit predicted classification of one register
// definition event: which bits the crash model expects to crash
// (CrashMask, the CRASHING_BIT_LIST restricted to this def) and whether
// the defining event is on the ACE graph. Non-def events have no
// DefClass. This is the prediction side of the FI attribution join.
type DefClass struct {
	// Event is the dynamic trace event index of the definition.
	Event int64
	// InstrID is the static instruction ID of the defining instruction.
	InstrID int
	// Width is the defined register's bit width.
	Width int
	// ACE reports whether the defining event is in the ACE graph.
	ACE bool
	// CrashMask is the predicted crash-bit mask for this definition
	// (always a subset of the register's low Width bits; nonzero only for
	// ACE defs, since the crash model walks the ACE graph).
	CrashMask uint64
}

// DefClasses exports the per-bit predicted classification of every
// register definition in the trace, in event order. A bit of a defined
// register is crash-predicted if set in CrashMask, else ACE if the def is
// ACE, else unACE — the three bit ranges the paper's validation (Fig. 7)
// compares against fault-injection outcomes.
func (a *Analysis) DefClasses() []DefClass {
	tr := a.Trace
	instrs := tr.Instrs()
	out := make([]DefClass, 0, tr.NumEvents())
	for i, id := range tr.InstrID {
		in := instrs[id]
		if !trace.IsDef(in) {
			continue
		}
		out = append(out, DefClass{
			Event:     int64(i),
			InstrID:   in.ID,
			Width:     trace.DefWidth(in),
			ACE:       a.ACEMask[i],
			CrashMask: a.CrashResult.DefMask(int64(i)),
		})
	}
	return out
}

// InstrVuln aggregates vulnerability per static instruction (Eq. 3).
type InstrVuln struct {
	Instr *ir.Instr
	// Dynamic is the number of dynamic instances.
	Dynamic int64
	// TotalBits, ACEBits and CrashBits are summed over all instances'
	// register reads.
	TotalBits, ACEBits, CrashBits int64
}

// PVF returns the instruction's PVF value.
func (v *InstrVuln) PVF() float64 {
	if v.TotalBits == 0 {
		return 0
	}
	return float64(v.ACEBits) / float64(v.TotalBits)
}

// EPVF returns the instruction's ePVF value (Eq. 3).
func (v *InstrVuln) EPVF() float64 {
	if v.TotalBits == 0 {
		return 0
	}
	return float64(v.ACEBits-v.CrashBits) / float64(v.TotalBits)
}

// PerInstruction aggregates the analysis per static instruction, averaging
// over dynamic instances as §V prescribes. For value-defining instructions
// the register is the instruction's destination; for void instructions
// (stores, branches, output) the instruction's register reads are counted
// instead, so they remain rankable for protection.
func (a *Analysis) PerInstruction() map[*ir.Instr]*InstrVuln {
	tr := a.Trace
	instrs := tr.Instrs()
	byID := make([]*InstrVuln, len(instrs))
	for i, id := range tr.InstrID {
		in := instrs[id]
		v := byID[id]
		if v == nil {
			v = &InstrVuln{Instr: in}
			byID[id] = v
		}
		v.Dynamic++
		if trace.IsDef(in) {
			w := int64(trace.DefWidth(in))
			v.TotalBits += w
			if a.ACEMask[i] {
				v.ACEBits += w
				v.CrashBits += int64(crash.PopCount(a.CrashResult.DefMask(int64(i))))
			}
			continue
		}
		n := trace.NumOperands(in)
		for op := 0; op < n; op++ {
			if !trace.InjectableOperand(in, op) {
				continue
			}
			w := int64(trace.OperandWidth(in, op))
			v.TotalBits += w
			if a.ACEMask[i] {
				v.ACEBits += w
				v.CrashBits += int64(crash.PopCount(a.CrashResult.UseMask(trace.Use{Event: int64(i), Op: op})))
			}
		}
	}
	out := make(map[*ir.Instr]*InstrVuln)
	for _, v := range byID {
		if v != nil {
			out[v.Instr] = v
		}
	}
	return out
}

// SampledEstimate computes the ePVF estimate from partial ACE graphs
// rooted at prefixes of the output nodes, linearly extrapolated to the
// whole application (§IV-E, Figure 11). Two partial analyses (at frac and
// 2*frac of the outputs) fit the non-crash ACE bit mass as a linear
// function of the sampled-output fraction; the intercept absorbs the
// shared component (input preparation, branch-rooted control flow) and the
// slope the per-output component, so the extrapolation to 100% is exact
// for programs whose outputs have similar, repetitive slices.
func SampledEstimate(tr *trace.Trace, frac float64, cfg Config) float64 {
	if frac <= 0 {
		frac = 0.01
	}
	if frac > 0.5 {
		frac = 0.5
	}
	g := ddg.New(tr)
	numeratorAt := func(f float64) float64 {
		mask, _ := g.PartialACEMask(f)
		res := rangeprop.Analyze(tr, g, mask, cfg.Prop)
		_, aceBits := defBits(tr, mask)
		return float64(aceBits - res.CrashBitCount)
	}
	n1 := numeratorAt(frac)
	n2 := numeratorAt(2 * frac)
	// N(p) ~= A + B*p  =>  N(1) = N(p) + (N(2p) - N(p)) * (1-p)/p.
	full := n1 + (n2-n1)*(1-frac)/frac
	totalBits, _ := defBits(tr, make([]bool, tr.NumEvents()))
	if totalBits == 0 {
		return 0
	}
	est := full / float64(totalBits)
	if est > 1 {
		est = 1
	}
	if est < 0 {
		est = 0
	}
	return est
}

// SamplingVariance estimates whether the application is regular enough for
// ACE-graph sampling: it draws rounds random subsamples of the output
// nodes, each of the given fraction, computes the non-crash ACE bit mass
// reachable from each subsample, and returns the normalized variance
// (variance over squared mean) of those estimates. Low values indicate
// repetitive behaviour (§IV-E).
func SamplingVariance(tr *trace.Trace, frac float64, rounds int, rng *rand.Rand, cfg Config) float64 {
	g := ddg.New(tr)
	nOut := len(tr.Outputs)
	k := int(float64(nOut) * frac)
	if k < 1 {
		k = 1
	}
	estimates := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		perm := rng.Perm(nOut)[:k]
		var roots []int64
		for _, oi := range perm {
			o := tr.Outputs[oi]
			if o.Def != trace.NoDef {
				roots = append(roots, o.Def)
			}
			roots = append(roots, o.EventIdx)
		}
		mask := g.ACEMaskFromRoots(roots)
		_, aceBits := defBits(tr, mask)
		res := rangeprop.Analyze(tr, g, mask, cfg.Prop)
		estimates = append(estimates, float64(aceBits-res.CrashBitCount))
	}
	mean, variance := meanVar(estimates)
	if mean == 0 {
		return 0
	}
	return variance / (mean * mean)
}

func meanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	if len(xs) > 1 {
		variance /= float64(len(xs) - 1)
	}
	if math.IsNaN(variance) {
		return mean, 0
	}
	return mean, variance
}
