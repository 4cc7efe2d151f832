// Package fi is an LLFI-style fault injector for the simulated machine
// (paper §II-B, §IV-A): each run flips one bit in one source-register read
// of one executed dynamic instruction and classifies the outcome as crash
// (with its exception type), SDC, hang, benign, or detected. Targets are
// sampled uniformly over the register *bit* population, which makes
// campaign rates directly comparable with the bit-ratio metrics PVF and
// ePVF.
//
// Fault-injection runs may execute under an ASLR-style jittered memory
// layout (Config.JitterWindow) while the model profiles the default layout
// — reproducing the environmental nondeterminism responsible for the
// paper's recall/precision gap (§IV-B).
package fi

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/rangeprop"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Outcome classifies one fault-injection run.
type Outcome int

// Outcomes. Enums start at one.
const (
	OutcomeBenign Outcome = iota + 1
	OutcomeCrash
	OutcomeSDC
	OutcomeHang
	OutcomeDetected
)

var outcomeNames = map[Outcome]string{
	OutcomeBenign: "benign", OutcomeCrash: "crash", OutcomeSDC: "SDC",
	OutcomeHang: "hang", OutcomeDetected: "detected",
}

// Valid reports whether o is one of the defined outcomes.
func (o Outcome) Valid() bool {
	_, ok := outcomeNames[o]
	return ok
}

// String returns the outcome name.
func (o Outcome) String() string {
	if s, ok := outcomeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Target identifies one injectable fault: bit Bit of the register defined
// by dynamic instruction Event. A nonzero Mask selects a multi-bit fault
// instead (XOR of all mask bits).
type Target struct {
	Event int64
	Bit   int
	Mask  uint64
}

// Bits returns the fault's flipped-bit mask regardless of encoding: the
// multi-bit Mask when set, else the single-bit mask 1<<Bit. Attribution
// tallies key on this, so single- and multi-bit records share one path.
func (t Target) Bits() uint64 {
	if t.Mask != 0 {
		return t.Mask
	}
	return 1 << uint(t.Bit)
}

// Record is the result of one injection run.
type Record struct {
	Target  Target
	Outcome Outcome
	// Exc is the exception kind for crash/detected outcomes.
	Exc interp.ExcKind
}

// Config holds a campaign's injection parameters: how each run's target
// and layout are drawn and how the run executes. How many runs a campaign
// has and how many workers execute them are not injection parameters:
// campaign.PlanConfig owns the run count and Runner.Run's caller the
// worker count.
type Config struct {
	// Seed seeds target sampling and layout jitter.
	Seed int64
	// JitterWindow shifts segment bases per run by a random page-aligned
	// offset in [0, JitterWindow) bytes; zero disables jitter.
	JitterWindow uint64
	// HangFactor multiplies the golden dynamic instruction count to form
	// the hang budget; zero means 10.
	HangFactor float64
	// FaultBits is the number of bits flipped per injection within the
	// targeted register; zero or one selects the paper's single-bit model
	// (§II-E), larger values exercise the multi-bit extension.
	FaultBits int
	// Align is the alignment-trap policy; zero means the interpreter
	// default.
	Align interp.AlignPolicy
	// Engine selects the execution engine: empty or EngineVM runs
	// injections on the bytecode VM (falling back to the walker for a
	// module the VM cannot compile), EngineWalker forces the frame-stack
	// walker everywhere and runs every injection from scratch. The two
	// engines are bit-identical — the differential suite in internal/vm
	// enforces it — so this cannot change results, only their speed, and
	// is not part of campaign plan identity.
	Engine string
}

// Engine names accepted by Config.Engine.
const (
	// EngineVM is the register-bytecode dispatch-loop engine (default).
	EngineVM = "vm"
	// EngineWalker is the original frame-stack instruction walker.
	EngineWalker = "walker"
)

// EngineStat reports one engine's share of a runner's executed work; the
// events/sec ratio is the paper-facing throughput number `campaign
// status -json` publishes for both engines.
type EngineStat struct {
	// Engine is EngineVM or EngineWalker.
	Engine string `json:"engine"`
	// Runs is the number of injection runs the engine executed.
	Runs int64 `json:"runs"`
	// Events is the total dynamic instructions those runs executed
	// (excluding snapshot prefixes and converged tails).
	Events int64 `json:"events"`
	// Seconds is the total wall time spent inside the engine.
	Seconds float64 `json:"seconds"`
	// EventsPerSec is Events/Seconds (0 when no time was recorded).
	EventsPerSec float64 `json:"events_per_sec"`
}

// engineTally accumulates one engine's work under atomics (runs execute
// concurrently from Run's workers).
type engineTally struct {
	runs   atomic.Int64
	events atomic.Int64
	nanos  atomic.Int64
}

func (t *engineTally) note(res *interp.Result, start time.Time) {
	t.runs.Add(1)
	if res != nil {
		t.events.Add(res.Executed)
	}
	t.nanos.Add(time.Since(start).Nanoseconds())
}

func (t *engineTally) stat(name string) EngineStat {
	s := EngineStat{
		Engine:  name,
		Runs:    t.runs.Load(),
		Events:  t.events.Load(),
		Seconds: float64(t.nanos.Load()) / 1e9,
	}
	if s.Seconds > 0 {
		s.EventsPerSec = float64(s.Events) / s.Seconds
	}
	return s
}

// Sampler draws injection targets uniformly over the register-bit
// population of a golden trace: every register definition weighted by its
// width, so campaign rates are directly comparable to the PVF/ePVF bit
// ratios.
type Sampler struct {
	tr *trace.Trace
	// cumBits[i] is the total defined-register bit count of events [0, i].
	cumBits []int64
	total   int64
}

// NewSampler indexes the golden trace for O(log n) bit-uniform sampling.
func NewSampler(tr *trace.Trace) *Sampler {
	s := &Sampler{tr: tr, cumBits: make([]int64, tr.NumEvents())}
	var run int64
	instrs := tr.Instrs()
	for i, id := range tr.InstrID {
		if in := instrs[id]; trace.IsDef(in) {
			run += int64(trace.DefWidth(in))
		}
		s.cumBits[i] = run
	}
	s.total = run
	return s
}

// TotalBits returns the size of the bit population.
func (s *Sampler) TotalBits() int64 { return s.total }

// Sample draws one target uniformly over bits. ok is false when the trace
// has no injectable bits.
func (s *Sampler) Sample(rng *rand.Rand) (Target, bool) {
	if s.total == 0 {
		return Target{}, false
	}
	pick := rng.Int63n(s.total)
	ev := sort.Search(len(s.cumBits), func(i int) bool { return s.cumBits[i] > pick })
	prev := int64(0)
	if ev > 0 {
		prev = s.cumBits[ev-1]
	}
	return Target{Event: int64(ev), Bit: int(pick - prev)}, true
}

// SampleMulti draws a multi-bit target: the register is chosen bit-uniform
// like Sample, then k distinct bits of it are flipped together.
func (s *Sampler) SampleMulti(rng *rand.Rand, k int) (Target, bool) {
	tgt, ok := s.Sample(rng)
	if !ok || k <= 1 {
		return tgt, ok
	}
	width := s.tr.Instr(tgt.Event).Type().BitWidth()
	if k > width {
		k = width
	}
	mask := uint64(0)
	for _, b := range rng.Perm(width)[:k] {
		mask |= 1 << uint(b)
	}
	tgt.Mask = mask
	return tgt, true
}

func classify(golden, res *interp.Result, tgt Target) Record {
	rec := Record{Target: tgt}
	switch {
	case res.Hang:
		rec.Outcome = OutcomeHang
	case res.Exception != nil && res.Exception.Kind == interp.ExcDetected:
		rec.Outcome = OutcomeDetected
		rec.Exc = res.Exception.Kind
	case res.Exception != nil:
		rec.Outcome = OutcomeCrash
		rec.Exc = res.Exception.Kind
	case sameOutputs(golden.Outputs, res.Outputs):
		rec.Outcome = OutcomeBenign
	default:
		rec.Outcome = OutcomeSDC
	}
	return rec
}

func sameOutputs(a, b []trace.Output) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Bits != b[i].Bits {
			return false
		}
	}
	return true
}

// TargetSeed derives the RNG seed for run index of a campaign from the
// campaign seed alone, via a splitmix64-style mix. Every run owns an
// independent deterministic stream, so run i can be drawn and executed
// without drawing runs 0..i-1 — results are independent of worker
// scheduling, batch boundaries, and process placement (shards computed on
// different machines agree bit for bit).
func TargetSeed(campaignSeed, index int64) int64 {
	z := uint64(campaignSeed)*0x9e3779b97f4a7c15 + uint64(index) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Runner executes campaign runs by index with deterministic per-index
// RNG streams. RunIndex executes one run; Run is the one worker pool that
// executes many. internal/campaign and the internal/dist worker drive
// their runs through it and take each record from its callback; RunRange
// collects a range of records, one at a time or on Run's workers, for
// tests that need a reference.
type Runner struct {
	m       *ir.Module
	golden  *interp.Result
	sampler *Sampler
	cfg     Config
	// chain, when non-nil, supplies golden-path snapshots: runs restore
	// the nearest snapshot at-or-below their injection event on the VM
	// and execute only the delta. Enabled explicitly via EnableSnapshots —
	// never by NewRunner, which also builds runners that execute no
	// indexed runs (the targeted injections of MeasurePrecision).
	chain *snapshot.Chain
	// prog, when non-nil, is the bytecode-compiled module and runs
	// injections on the VM engine; nil runs everything on the walker
	// (Config.Engine == EngineWalker, or the module failed to compile).
	prog *vm.Program
	// vmTally/walkerTally split executed work by the engine that ran it.
	vmTally     engineTally
	walkerTally engineTally
}

// NewRunner validates the golden run and indexes its trace for sampling.
// Unless Config.Engine forces the walker, the module is compiled to
// bytecode here; a module the VM cannot express downgrades to the walker
// (counted in epvf_vm_fallbacks_total) rather than failing the campaign.
func NewRunner(m *ir.Module, golden *interp.Result, cfg Config) (*Runner, error) {
	if golden.Trace == nil {
		return nil, fmt.Errorf("fi: golden result has no recorded trace")
	}
	s := NewSampler(golden.Trace)
	if s.TotalBits() == 0 {
		return nil, fmt.Errorf("fi: module %q has no injectable register bits", m.Name)
	}
	r := &Runner{m: m, golden: golden, sampler: s, cfg: cfg}
	switch cfg.Engine {
	case "", EngineVM:
		if prog, err := vm.Compile(m, vm.Options{}); err == nil {
			r.prog = prog
		}
		// Compile failures already counted a "compile" fallback.
	case EngineWalker:
	default:
		return nil, fmt.Errorf("fi: unknown engine %q (want %q or %q)", cfg.Engine, EngineVM, EngineWalker)
	}
	return r, nil
}

// EngineStats reports executed work split by engine, in (vm, walker)
// order, omitting engines that ran nothing. Safe to call concurrently
// with runs.
func (r *Runner) EngineStats() []EngineStat {
	var out []EngineStat
	if s := r.vmTally.stat(EngineVM); s.Runs > 0 {
		out = append(out, s)
	}
	if s := r.walkerTally.stat(EngineWalker); s.Runs > 0 {
		out = append(out, s)
	}
	return out
}

// EnableSnapshots builds the golden-path snapshot chain so subsequent
// RunIndex calls restore-and-replay on the VM instead of executing from
// scratch. It reports false without error when snapshots are ruled out:
// layout jitter draws a fresh address-space layout per run, so a shared
// golden-layout snapshot cannot seed those runs, and a runner without a
// VM program (walker engine, or a module the VM rejects) has no engine to
// capture them. Such a runner runs from scratch, with identical records.
//
// The chain's execution configuration matches the scratch path exactly
// (default layout, hang budget, alignment policy), which is what makes
// resumed runs bit-identical to from-scratch runs. The chain places its
// snapshots itself; the empty snapshot.Config parameter stays only
// because the benchmark (perfbench/campaign.go) passes one.
func (r *Runner) EnableSnapshots(snapshot.Config) (bool, error) {
	if r.cfg.JitterWindow != 0 || r.prog == nil {
		return false, nil
	}
	if r.chain != nil {
		return true, nil
	}
	hangFactor := r.cfg.HangFactor
	if hangFactor == 0 {
		hangFactor = 10
	}
	ch, err := snapshot.NewChain(r.prog, interp.Config{
		Layout:       mem.DefaultLayout(),
		MaxDynInstrs: int64(hangFactor * float64(r.golden.DynInstrs)),
		Align:        r.cfg.Align,
	}, r.golden.DynInstrs)
	if err != nil {
		return false, err
	}
	r.chain = ch
	return true, nil
}

// SnapshotsEnabled reports whether the runner restores snapshots.
func (r *Runner) SnapshotsEnabled() bool { return r.chain != nil }

// SnapshotView returns the chain's live stats, or nil when snapshots are
// disabled. The pointer shape feeds straight into status JSON.
func (r *Runner) SnapshotView() *snapshot.View {
	if r.chain == nil {
		return nil
	}
	v := r.chain.View()
	return &v
}

// Draw deterministically derives run index's target and memory layout.
func (r *Runner) Draw(index int64) (Target, mem.Layout) {
	rng := rand.New(rand.NewSource(TargetSeed(r.cfg.Seed, index)))
	tgt, _ := r.sampler.SampleMulti(rng, r.cfg.FaultBits)
	layout := mem.DefaultLayout()
	if r.cfg.JitterWindow > 0 {
		layout = layout.Jitter(rng, r.cfg.JitterWindow)
	}
	return tgt, layout
}

// RunIndex draws and executes run index. The result depends only on
// (module, golden, Config.Seed/JitterWindow/FaultBits/HangFactor/Align,
// index).
func (r *Runner) RunIndex(index int64) Record {
	tgt, layout := r.Draw(index)
	if r.chain != nil {
		return r.runSnapshot(tgt)
	}
	return r.runScratch(tgt, layout)
}

// RunTarget executes one injection into tgt from scratch on the runner's
// engine, outside the plan's run indices — the targeted injections of the
// precision and extension studies. Under layout jitter the run's layout is
// drawn from rng (which may be nil without jitter); snapshots are never
// used.
func (r *Runner) RunTarget(tgt Target, rng *rand.Rand) Record {
	layout := mem.DefaultLayout()
	if r.cfg.JitterWindow > 0 {
		layout = layout.Jitter(rng, r.cfg.JitterWindow)
	}
	return r.runScratch(tgt, layout)
}

// runScratch executes one injection from scratch on the selected engine.
// The engines are bit-identical, so which one ran is invisible in the
// record.
func (r *Runner) runScratch(tgt Target, layout mem.Layout) Record {
	hangFactor := r.cfg.HangFactor
	if hangFactor == 0 {
		hangFactor = 10
	}
	cfg := interp.Config{
		Layout:       layout,
		MaxDynInstrs: int64(hangFactor * float64(r.golden.DynInstrs)),
		Align:        r.cfg.Align,
		Injection:    &interp.Injection{Event: tgt.Event, Bit: tgt.Bit, Mask: tgt.Mask},
	}
	start := time.Now()
	var res *interp.Result
	var err error
	if r.prog == nil {
		res, err = interp.Run(r.m, cfg)
		r.walkerTally.note(res, start)
	} else {
		res, err = r.prog.Run(cfg)
		r.vmTally.note(res, start)
	}
	if err != nil {
		// Harness errors should be impossible for a verified module; report
		// as abort-class crashes so campaigns remain total.
		return Record{Target: tgt, Outcome: OutcomeCrash, Exc: interp.ExcAbort}
	}
	return classify(r.golden, res, tgt)
}

// runSnapshot executes one injection on the VM by restoring the nearest
// snapshot at-or-below the target event and running only the delta, with
// convergence fast-forward against later snapshots. Classification is
// identical to the scratch path because the resumed run is.
func (r *Runner) runSnapshot(tgt Target) Record {
	st := r.chain.Nearest(tgt.Event)
	start := time.Now()
	res, err := vm.Resume(st, vm.ResumeOptions{
		Injection:   &interp.Injection{Event: tgt.Event, Bit: tgt.Bit, Mask: tgt.Mask},
		Convergence: &vm.Convergence{Golden: r.golden, Next: r.chain.Next},
	})
	r.vmTally.note(res, start)
	if err != nil {
		return Record{Target: tgt, Outcome: OutcomeCrash, Exc: interp.ExcAbort}
	}
	r.chain.NoteRestore(res)
	return classify(r.golden, res, tgt)
}

// Run executes the given run indices on max(workers, 1) goroutines, in
// OrderByEvent order (sorting idxs in place), and reports each finished run to done: its index,
// record, start time and wall time. done is called once per executed
// run, one call at a time, on the calling goroutine, so it needs no
// locking. Cancelling ctx stops issuing runs; runs already issued still
// finish and reach done, so a caller that logs from done never holds a
// torn batch. The first error done returns also stops issuing runs and
// is returned; runs still in flight then finish without being reported.
// Records are keyed by index, so worker count and order never change
// them.
func (r *Runner) Run(ctx context.Context, idxs []int64, workers int, done func(index int64, rec Record, start time.Time, wall time.Duration) error) error {
	type finished struct {
		index int64
		rec   Record
		start time.Time
		wall  time.Duration
	}
	idxs = r.OrderByEvent(idxs)
	workers = max(1, min(workers, len(idxs)))
	var next atomic.Int64
	var failed atomic.Bool
	// One slot per worker: a worker can finish a run while done is busy
	// with an earlier one without waiting to hand it over.
	results := make(chan finished, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				k := next.Add(1) - 1
				if k >= int64(len(idxs)) {
					return
				}
				start := time.Now()
				rec := r.RunIndex(idxs[k])
				results <- finished{idxs[k], rec, start, time.Since(start)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	var err error
	for f := range results {
		if err != nil {
			continue
		}
		if err = done(f.index, f.rec, f.start, f.wall); err != nil {
			failed.Store(true)
		}
	}
	return err
}

// RunRange executes runs [lo, hi) on Run and returns the records in
// index order.
func (r *Runner) RunRange(lo, hi int64, workers int) []Record {
	if hi <= lo {
		return nil
	}
	idxs := make([]int64, hi-lo)
	for i := range idxs {
		idxs[i] = lo + int64(i)
	}
	out := make([]Record, hi-lo)
	// Neither cancelled nor failed by its callback, Run returns nil here.
	_ = r.Run(context.Background(), idxs, workers, func(i int64, rec Record, _ time.Time, _ time.Duration) error {
		out[i-lo] = rec
		return nil
	})
	return out
}

// OrderByEvent sorts run indices by their (deterministically drawn)
// injection event, in place, returning the slice. With snapshots enabled
// this makes the lazily-extended chain grow monotonically — early runs
// hit snapshots that already exist instead of serializing behind one
// long extension. Without snapshots it is the identity: scratch runs
// gain nothing from event locality. Results are keyed by index, so
// dispatch order never affects them.
func (r *Runner) OrderByEvent(idxs []int64) []int64 {
	if r.chain == nil {
		return idxs
	}
	events := make(map[int64]int64, len(idxs))
	for _, idx := range idxs {
		tgt, _ := r.Draw(idx)
		events[idx] = tgt.Event
	}
	sort.Slice(idxs, func(a, b int) bool {
		if events[idxs[a]] != events[idxs[b]] {
			return events[idxs[a]] < events[idxs[b]]
		}
		return idxs[a] < idxs[b]
	})
	return idxs
}

// MeasureRecall computes the crash-prediction recall (§IV-B): among
// campaign runs that actually crashed, the fraction whose (register, bit)
// target appears in the model's CRASHING_BIT_LIST. Only hardware crashes
// count; detected outcomes are excluded.
func MeasureRecall(records []Record, prop *rangeprop.Result) (recall float64, crashes int) {
	predicted := 0
	for _, r := range records {
		if r.Outcome != OutcomeCrash {
			continue
		}
		crashes++
		if r.Target.Mask != 0 {
			if prop.PredictedDefMask(r.Target.Event, r.Target.Mask) {
				predicted++
			}
		} else if prop.PredictedDef(r.Target.Event, r.Target.Bit) {
			predicted++
		}
	}
	if crashes == 0 {
		return 0, 0
	}
	return float64(predicted) / float64(crashes), crashes
}

// SamplePredicted draws up to k (register, bit) targets uniformly from the
// model's predicted crash bits, deterministically under rng.
func SamplePredicted(prop *rangeprop.Result, k int, rng *rand.Rand) []Target {
	var all []Target
	prop.EachDef(func(d int64, mask uint64) {
		for b := 0; b < 64; b++ {
			if mask&(1<<uint(b)) != 0 {
				all = append(all, Target{Event: d, Bit: b})
			}
		}
	})
	if len(all) <= k {
		return all
	}
	perm := rng.Perm(len(all))[:k]
	out := make([]Target, k)
	for i, p := range perm {
		out[i] = all[p]
	}
	return out
}

// MeasurePrecision performs targeted injections into k predicted crash bits
// and returns the fraction that actually crash (§IV-B).
func MeasurePrecision(m *ir.Module, golden *interp.Result, prop *rangeprop.Result, k int, cfg Config) (precision float64, n int) {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	targets := SamplePredicted(prop, k, rng)
	if len(targets) == 0 {
		return 0, 0
	}
	// A predicted crash bit is an injectable bit, so with targets in hand
	// NewRunner fails only on a golden run without a trace.
	r, err := NewRunner(m, golden, cfg)
	if err != nil {
		return 0, 0
	}
	crashed := 0
	for _, tgt := range targets {
		rec := r.RunTarget(tgt, rng)
		if rec.Outcome == OutcomeCrash {
			crashed++
		}
	}
	return float64(crashed) / float64(len(targets)), len(targets)
}

// FailureOutcomes lists the outcome kinds in reporting order.
var FailureOutcomes = []Outcome{OutcomeCrash, OutcomeSDC, OutcomeHang, OutcomeBenign, OutcomeDetected}

// CrashKinds lists the crash exception kinds in Table I order.
var CrashKinds = []interp.ExcKind{interp.ExcSegFault, interp.ExcAbort, interp.ExcMisaligned, interp.ExcArith}
