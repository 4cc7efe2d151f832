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
	"errors"
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

// Config controls a campaign.
type Config struct {
	// Runs is the number of injections.
	Runs int
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
	// Parallel is the number of worker goroutines executing injection
	// runs (the trivial parallelism §VI-A of the paper points out). Zero
	// or one runs serially. Campaign results are identical regardless of
	// parallelism: every run's RNG stream is derived from (Seed, run
	// index) via TargetSeed, independent of scheduling order.
	Parallel int
	// Align is the alignment-trap policy; zero means the interpreter
	// default.
	Align interp.AlignPolicy
	// DisableSnapshots forces every RunCampaign run to execute from
	// scratch instead of restoring the nearest golden-path snapshot.
	// Results are bit-identical either way; the flag exists as an escape
	// hatch and for benchmarking the speedup. It does not affect target
	// sampling and is not part of campaign plan identity.
	DisableSnapshots bool
	// SnapshotStride overrides the automatic snapshot spacing
	// (~sqrt(trace length)); zero keeps the default. Like
	// DisableSnapshots it cannot change results, only their cost.
	SnapshotStride int64
	// Engine selects the execution engine: empty or EngineVM runs
	// injections on the bytecode VM (falling back to the walker per-run
	// on anything the VM cannot express), EngineWalker forces the
	// frame-stack walker everywhere. The two engines are bit-identical —
	// the differential suite in internal/vm enforces it — so, like
	// DisableSnapshots, this cannot change results, only their speed,
	// and is not part of campaign plan identity.
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
// concurrently from RunRange workers).
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

// Result aggregates a campaign.
type Result struct {
	Records []Record
	// Counts tallies outcomes.
	Counts map[Outcome]int
	// CrashTypes tallies exception kinds among crashes.
	CrashTypes map[interp.ExcKind]int
	// GoldenDyn is the golden run's dynamic instruction count.
	GoldenDyn int64
}

// N returns the number of runs in the result. Callers that need to
// distinguish "no runs" from "rate zero" check N() > 0 before trusting
// Rate.
func (r *Result) N() int { return len(r.Records) }

// Rate returns the fraction of runs with the given outcome (zero for an
// empty result; use N to tell the two apart).
func (r *Result) Rate(o Outcome) float64 {
	if r.N() == 0 {
		return 0
	}
	return float64(r.Counts[o]) / float64(r.N())
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

// RunOne executes the module with the given fault injected and classifies
// the outcome against the golden outputs.
func RunOne(m *ir.Module, golden *interp.Result, tgt Target, cfg Config, rng *rand.Rand) Record {
	layout := mem.DefaultLayout()
	if cfg.JitterWindow > 0 {
		layout = layout.Jitter(rng, cfg.JitterWindow)
	}
	return runWithLayout(m, golden, tgt, layout, cfg)
}

// runWithLayout is RunOne with the per-run memory layout already drawn.
func runWithLayout(m *ir.Module, golden *interp.Result, tgt Target, layout mem.Layout, cfg Config) Record {
	rec, _ := runWithLayoutRes(m, golden, tgt, layout, cfg)
	return rec
}

// runWithLayoutRes additionally returns the raw interpreter result (nil
// on harness error) so callers can tally executed events.
func runWithLayoutRes(m *ir.Module, golden *interp.Result, tgt Target, layout mem.Layout, cfg Config) (Record, *interp.Result) {
	hangFactor := cfg.HangFactor
	if hangFactor == 0 {
		hangFactor = 10
	}
	inj := &interp.Injection{Event: tgt.Event, Bit: tgt.Bit, Mask: tgt.Mask}
	res, err := interp.Run(m, interp.Config{
		Layout:       layout,
		MaxDynInstrs: int64(hangFactor * float64(golden.DynInstrs)),
		Align:        cfg.Align,
		Injection:    inj,
	})
	if err != nil {
		// Harness errors should be impossible for a verified module; report
		// as abort-class crashes so campaigns remain total.
		return Record{Target: tgt, Outcome: OutcomeCrash, Exc: interp.ExcAbort}, nil
	}
	return classify(golden, res, tgt), res
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

// Runner executes individual campaign runs by index with deterministic
// per-index RNG streams. It is the batch-granular core that RunCampaign
// wraps and that internal/campaign shards across workers and processes.
type Runner struct {
	m       *ir.Module
	golden  *interp.Result
	sampler *Sampler
	cfg     Config
	// chain, when non-nil, supplies golden-path snapshots: runs restore
	// the nearest snapshot at-or-below their injection event and execute
	// only the delta. Enabled explicitly via EnableSnapshots — never by
	// NewRunner, which is also called on the planning path where no runs
	// execute.
	chain *snapshot.Chain
	// observer, when non-nil, receives every completed record (snapshot
	// and scratch paths alike). It is invoked concurrently from RunRange
	// workers and must be safe for concurrent use.
	observer func(Record)
	// spanObserver, when non-nil, additionally receives each run's index
	// and timing — the injection-span hook tracing and the flight
	// recorder ride on. Runs are only clocked when it is set, so the
	// disabled path pays one nil check per run.
	spanObserver func(index int64, rec Record, start time.Time, wall time.Duration)
	// prog, when non-nil, is the bytecode-compiled module and runs
	// injections on the VM engine; nil runs everything on the walker
	// (Config.Engine == EngineWalker, or the module failed to compile).
	prog *vm.Program
	// vmTally/walkerTally split executed work by the engine that actually
	// ran it — per-run walker fallbacks land in walkerTally even when the
	// VM is enabled.
	vmTally     engineTally
	walkerTally engineTally
}

// SetObserver streams every subsequent record through fn — the hook the
// attribution ledger uses to tally outcomes as runs complete. fn is
// called from RunRange worker goroutines concurrently and must be safe
// for that; set it before runs start. A nil fn disables streaming.
func (r *Runner) SetObserver(fn func(Record)) { r.observer = fn }

// SetSpanObserver streams (index, record, start, wall) for every
// subsequent run — the hook dist workers and the flight recorder use for
// per-injection latency exemplars and injection spans. Same concurrency
// contract as SetObserver. A nil fn disables it (and the per-run clock
// reads with it).
func (r *Runner) SetSpanObserver(fn func(index int64, rec Record, start time.Time, wall time.Duration)) {
	r.spanObserver = fn
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

// Engine returns the engine the runner executes on: EngineVM when the
// module compiled to bytecode, EngineWalker otherwise.
func (r *Runner) Engine() string {
	if r.prog != nil {
		return EngineVM
	}
	return EngineWalker
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

// Sampler exposes the bit-population index (e.g. for TotalBits).
func (r *Runner) Sampler() *Sampler { return r.sampler }

// EnableSnapshots builds the golden-path snapshot chain so subsequent
// RunIndex calls restore-and-replay instead of executing from scratch.
// It reports false without error when the configuration rules snapshots
// out: layout jitter draws a fresh address-space layout per run, so a
// shared golden-layout snapshot cannot seed those runs.
//
// The chain's interpreter configuration matches the scratch path exactly
// (default layout, hang budget, alignment policy), which is what makes
// resumed runs bit-identical to from-scratch runs.
func (r *Runner) EnableSnapshots(scfg snapshot.Config) (bool, error) {
	if r.cfg.JitterWindow != 0 {
		return false, nil
	}
	if r.chain != nil {
		return true, nil
	}
	hangFactor := r.cfg.HangFactor
	if hangFactor == 0 {
		hangFactor = 10
	}
	ch, err := snapshot.NewChain(r.m, interp.Config{
		Layout:       mem.DefaultLayout(),
		MaxDynInstrs: int64(hangFactor * float64(r.golden.DynInstrs)),
		Align:        r.cfg.Align,
	}, r.golden.DynInstrs, scfg)
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

// Golden returns the recorded golden run.
func (r *Runner) Golden() *interp.Result { return r.golden }

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
	var start time.Time
	if r.spanObserver != nil {
		start = time.Now()
	}
	tgt, layout := r.Draw(index)
	var rec Record
	if r.chain != nil {
		rec = r.runSnapshot(tgt)
	} else {
		rec = r.runScratch(tgt, layout)
	}
	if r.observer != nil {
		r.observer(rec)
	}
	if r.spanObserver != nil {
		r.spanObserver(index, rec, start, time.Since(start))
	}
	return rec
}

// runScratch executes one injection from scratch on the selected engine.
// The per-run interpreter configuration is identical to runWithLayout's;
// the engines are bit-identical, so which one ran is invisible in the
// record.
func (r *Runner) runScratch(tgt Target, layout mem.Layout) Record {
	if r.prog == nil {
		start := time.Now()
		rec, res := runWithLayoutRes(r.m, r.golden, tgt, layout, r.cfg)
		r.walkerTally.note(res, start)
		return rec
	}
	hangFactor := r.cfg.HangFactor
	if hangFactor == 0 {
		hangFactor = 10
	}
	start := time.Now()
	res, err := r.prog.Run(interp.Config{
		Layout:       layout,
		MaxDynInstrs: int64(hangFactor * float64(r.golden.DynInstrs)),
		Align:        r.cfg.Align,
		Injection:    &interp.Injection{Event: tgt.Event, Bit: tgt.Bit, Mask: tgt.Mask},
	})
	r.vmTally.note(res, start)
	if err != nil {
		return Record{Target: tgt, Outcome: OutcomeCrash, Exc: interp.ExcAbort}
	}
	return classify(r.golden, res, tgt)
}

// runSnapshot executes one injection by restoring the nearest snapshot
// at-or-below the target event and running only the delta, with
// convergence fast-forward against later snapshots. Classification is
// identical to the scratch path because the resumed run is. Snapshots are
// captured by the walker; the VM engine resumes them directly, dropping
// to a walker resume for any state it cannot map (mid-phi-group pauses).
func (r *Runner) runSnapshot(tgt Target) Record {
	st := r.chain.Nearest(tgt.Event)
	opts := interp.ResumeOptions{
		Injection:   &interp.Injection{Event: tgt.Event, Bit: tgt.Bit, Mask: tgt.Mask},
		Convergence: &interp.Convergence{Golden: r.golden, Next: r.chain.Next},
	}
	var res *interp.Result
	var err error
	if r.prog != nil {
		start := time.Now()
		res, err = r.prog.Resume(st, opts)
		if err != nil && errors.Is(err, vm.ErrUnsupported) {
			// The failed VM resume never touched the snapshot; retry on
			// the walker from the same state.
			vm.NoteFallback("resume")
			start = time.Now()
			res, err = interp.Resume(st, opts)
			r.walkerTally.note(res, start)
		} else {
			r.vmTally.note(res, start)
		}
	} else {
		start := time.Now()
		res, err = interp.Resume(st, opts)
		r.walkerTally.note(res, start)
	}
	if err != nil {
		return Record{Target: tgt, Outcome: OutcomeCrash, Exc: interp.ExcAbort}
	}
	r.chain.NoteRestore(res)
	return classify(r.golden, res, tgt)
}

// RunRange executes runs [lo, hi) across the given number of workers and
// returns the records in index order. workers <= 1 runs serially; the
// records are identical either way.
func (r *Runner) RunRange(lo, hi int64, workers int) []Record {
	if hi <= lo {
		return nil
	}
	out := make([]Record, hi-lo)
	order := r.dispatchOrder(lo, hi)
	if workers > len(out) {
		workers = len(out)
	}
	if workers <= 1 {
		for _, i := range order {
			out[i-lo] = r.RunIndex(i)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int64)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i-lo] = r.RunIndex(i)
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// dispatchOrder returns the run indices of [lo, hi) in execution order.
func (r *Runner) dispatchOrder(lo, hi int64) []int64 {
	order := make([]int64, hi-lo)
	for i := range order {
		order[i] = lo + int64(i)
	}
	return r.OrderByEvent(order)
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

// Aggregate tallies records into a campaign Result.
func (r *Runner) Aggregate(records []Record) *Result {
	out := &Result{
		Records:    records,
		Counts:     make(map[Outcome]int),
		CrashTypes: make(map[interp.ExcKind]int),
		GoldenDyn:  r.golden.DynInstrs,
	}
	for _, rec := range records {
		out.Counts[rec.Outcome]++
		if rec.Outcome == OutcomeCrash {
			out.CrashTypes[rec.Exc]++
		}
	}
	return out
}

// RunCampaign performs cfg.Runs bit-uniform injections into the module and
// aggregates the outcomes. golden must be a recorded run of the same
// module. It is a thin wrapper over Runner: each run's RNG stream is
// derived from (cfg.Seed, run index), so the same configuration yields the
// same records under any cfg.Parallel setting.
func RunCampaign(m *ir.Module, golden *interp.Result, cfg Config) (*Result, error) {
	r, err := NewRunner(m, golden, cfg)
	if err != nil {
		return nil, err
	}
	if !cfg.DisableSnapshots {
		if _, err := r.EnableSnapshots(snapshot.Config{Stride: cfg.SnapshotStride}); err != nil {
			return nil, err
		}
	}
	workers := cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	return r.Aggregate(r.RunRange(0, int64(cfg.Runs), workers)), nil
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
	crashed := 0
	for _, tgt := range targets {
		rec := RunOne(m, golden, tgt, cfg, rng)
		if rec.Outcome == OutcomeCrash {
			crashed++
		}
	}
	return float64(crashed) / float64(len(targets)), len(targets)
}

// ExcTypeShare returns the fraction of crashes with the given exception
// kind — the rows of Table II.
func (r *Result) ExcTypeShare(kind interp.ExcKind) float64 {
	total := r.Counts[OutcomeCrash]
	if total == 0 {
		return 0
	}
	return float64(r.CrashTypes[kind]) / float64(total)
}

// FailureOutcomes lists the outcome kinds in reporting order.
var FailureOutcomes = []Outcome{OutcomeCrash, OutcomeSDC, OutcomeHang, OutcomeBenign, OutcomeDetected}

// CrashKinds lists the crash exception kinds in Table I order.
var CrashKinds = []interp.ExcKind{interp.ExcSegFault, interp.ExcAbort, interp.ExcMisaligned, interp.ExcArith}

// ModuleOf is a convenience that re-exports the module under test from a
// golden run (the trace records it).
func ModuleOf(golden *interp.Result) *ir.Module {
	if golden.Trace == nil {
		return nil
	}
	return golden.Trace.Module
}
