// Package interp executes IR modules on the simulated machine defined by
// package mem. It produces the dynamic instruction traces consumed by the
// DDG/ACE/ePVF analyses, raises the same hardware exceptions that the
// paper's crash taxonomy enumerates (Table I: segmentation fault, abort,
// misaligned memory access, arithmetic error), and supports LLFI-style
// single-bit fault injection into the source registers of executed
// instructions.
package interp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ExcKind is a hardware-exception category (paper Table I).
type ExcKind int

// Exception kinds. Enums start at one.
const (
	// ExcSegFault is a memory access outside every valid VMA range
	// (SIGSEGV).
	ExcSegFault ExcKind = iota + 1
	// ExcAbort is a program- or runtime-initiated abort (SIGABRT), e.g. an
	// invalid free or an explicit abort().
	ExcAbort
	// ExcMisaligned is an insufficiently aligned memory access (SIGBUS).
	ExcMisaligned
	// ExcArith is an integer division error: divide by zero or INT_MIN/-1
	// (SIGFPE).
	ExcArith
	// ExcDetected is not a hardware exception: it is raised by the detect
	// intrinsic that duplication-based protection inserts, and marks a
	// caught fault.
	ExcDetected
)

var excNames = map[ExcKind]string{
	ExcSegFault:   "segmentation fault",
	ExcAbort:      "abort",
	ExcMisaligned: "misaligned memory access",
	ExcArith:      "arithmetic error",
	ExcDetected:   "detected",
}

// Valid reports whether k is one of the defined exception kinds.
func (k ExcKind) Valid() bool {
	_, ok := excNames[k]
	return ok
}

// String returns the exception name.
func (k ExcKind) String() string {
	if s, ok := excNames[k]; ok {
		return s
	}
	return fmt.Sprintf("exc(%d)", int(k))
}

// excMetricLabels are the metric-friendly (label-safe) exception names,
// mirroring the signal each kind models.
var excMetricLabels = map[ExcKind]string{
	ExcSegFault:   "segfault",
	ExcAbort:      "abort",
	ExcMisaligned: "misaligned",
	ExcArith:      "arith",
	ExcDetected:   "detected",
}

// MetricLabel returns the exception kind as an epvf_* metric label value.
func (k ExcKind) MetricLabel() string {
	if s, ok := excMetricLabels[k]; ok {
		return s
	}
	return fmt.Sprintf("exc_%d", int(k))
}

// Exception describes a terminated execution.
type Exception struct {
	Kind   ExcKind
	Addr   uint64
	DynIdx int64
	Instr  *ir.Instr
	Reason string
}

// Error implements error.
func (e *Exception) Error() string {
	return fmt.Sprintf("%s at dynamic instruction %d (%s): %s", e.Kind, e.DynIdx, e.Instr.Op, e.Reason)
}

// AlignPolicy selects the alignment rule the simulated machine enforces.
type AlignPolicy int

// Alignment policies.
const (
	// AlignFourByte traps accesses wider than a byte that are not aligned
	// to min(4, natural alignment) — the behaviour the paper observed
	// ("memory accesses are not aligned at four bytes").
	AlignFourByte AlignPolicy = iota + 1
	// AlignNatural traps any access not aligned to its natural alignment.
	AlignNatural
	// AlignNone never traps on alignment.
	AlignNone
)

// Injection describes one LLFI-style single-bit fault: flip bit Bit of the
// result register defined by dynamic instruction Event. The corrupted value
// is seen by every subsequent read of that register (and, through stores,
// by memory), matching LLFI's inject-into-destination-register fault model.
// Applied and Original are filled in by the interpreter.
type Injection struct {
	// Event is the dynamic index of the value-producing instruction whose
	// result register is corrupted.
	Event int64
	// Bit is the bit to flip; it must be below the register's width.
	Bit int
	// Mask, when nonzero, overrides Bit with a multi-bit XOR mask (the
	// paper's single-bit model "can be easily extended to multiple-bit
	// flips", §II-E). Bits at or above the register width are ignored.
	Mask uint64
	// Applied reports whether the run reached the target instruction.
	Applied bool
	// Original is the register's uncorrupted bit pattern.
	Original uint64
}

// Config controls one execution.
type Config struct {
	// Layout is the memory layout; zero value means mem.DefaultLayout.
	Layout mem.Layout
	// MaxDynInstrs bounds execution; exceeding it reports a hang. Zero
	// means DefaultMaxDynInstrs.
	MaxDynInstrs int64
	// Record captures the full dynamic trace (def-use links, VMA
	// snapshots). Leave false for fault-injection runs.
	Record bool
	// Align is the alignment-trap policy; zero value means AlignFourByte.
	Align AlignPolicy
	// Injection, when non-nil, corrupts one operand read.
	Injection *Injection
}

// Entry names the function every run starts in.
const Entry = "main"

// DefaultMaxDynInstrs is the default dynamic-instruction budget.
const DefaultMaxDynInstrs = 50_000_000

// Result is the outcome of one execution.
type Result struct {
	// Outputs are the values the program emitted.
	Outputs []trace.Output
	// Trace is the full dynamic trace; nil unless Config.Record.
	Trace *trace.Trace
	// Exception is non-nil when the run terminated on an exception.
	Exception *Exception
	// Hang reports that the dynamic-instruction budget was exhausted.
	Hang bool
	// DynInstrs is the dynamic-instruction position the run ended at. For a
	// from-scratch run this equals the instructions executed; for a
	// snapshot-resumed run it is the absolute event index (prefix included),
	// so it is comparable across the two.
	DynInstrs int64
	// Executed counts the instructions this run actually executed: excludes
	// both a resumed snapshot's prefix and any converged (spliced) tail.
	Executed int64
	// Converged reports that the run was fast-forwarded to the golden
	// result after its machine state became identical to a golden
	// checkpoint (see vm.Convergence).
	Converged bool
}

// Crashed reports whether the run ended in a hardware exception (Detected
// does not count as a crash).
func (r *Result) Crashed() bool {
	return r.Exception != nil && r.Exception.Kind != ExcDetected
}

// Detected reports whether a duplication check caught the fault.
func (r *Result) Detected() bool {
	return r.Exception != nil && r.Exception.Kind == ExcDetected
}

// OutputBits flattens the emitted values for golden-output comparison.
func (r *Result) OutputBits() []uint64 {
	out := make([]uint64, len(r.Outputs))
	for i, o := range r.Outputs {
		out[i] = o.Bits
	}
	return out
}

// Run executes the module's entry function under cfg. The returned error
// reports harness-level problems (missing entry, malformed IR); program
// crashes and hangs are reported in the Result.
func Run(m *ir.Module, cfg Config) (*Result, error) {
	vm, err := newMachine(m, cfg)
	if err != nil {
		return nil, err
	}
	vm.pushFrame(vm.entryFn, nil, nil)
	vm.run()
	return vm.finish()
}

// newMachine normalizes cfg, builds the address space, and loads globals.
// It does not push the entry frame.
func newMachine(m *ir.Module, cfg Config) (*machine, error) {
	cfg, fn, err := Normalize(m, cfg)
	if err != nil {
		return nil, err
	}
	vm := &machine{cfg: cfg, mod: m, as: mem.New(cfg.Layout), entryFn: fn}
	if cfg.Record {
		vm.rec = trace.NewRecorder(m)
	}
	if err := vm.loadGlobals(); err != nil {
		return nil, fmt.Errorf("interp: loading globals: %w", err)
	}
	return vm, nil
}

// finish assembles the Result and publishes run tallies.
func (vm *machine) finish() (*Result, error) {
	res := &Result{
		Outputs:   vm.outputs,
		Exception: vm.exc,
		Hang:      vm.hang,
		DynInstrs: vm.dyn,
		Executed:  vm.executed,
	}
	if vm.rec != nil {
		var err error
		if res.Trace, err = vm.rec.Finish(vm.outputs, vm.as.Snapshots(), vm.cfg.Layout); err != nil && vm.fatal == nil {
			vm.fatal = err
		}
	}
	vm.flushObs()
	return res, vm.fatal
}

// flushObs publishes one run's tallies to the obs registry. Counting is
// machine-local (plain int64 increments in the hot loop) and flushed once
// per run, so the instrumentation costs one nil check when observability
// is disabled and four registry lookups per run when enabled.
func (vm *machine) flushObs() {
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter("epvf_interp_runs_total").Inc()
	r.Counter("epvf_interp_instructions_total").Add(vm.executed)
	r.Counter("epvf_interp_loads_total").Add(vm.loads)
	r.Counter("epvf_interp_stores_total").Add(vm.stores)
	if vm.exc != nil {
		r.Counter("epvf_interp_exceptions_total", "kind", vm.exc.Kind.MetricLabel()).Inc()
	}
	if vm.hang {
		r.Counter("epvf_interp_hangs_total").Inc()
	}
}

type frameLayout struct {
	size    uint64
	offsets map[*ir.Instr]uint64
}

type machine struct {
	cfg     Config
	mod     *ir.Module
	as      *mem.AddressSpace
	entryFn *ir.Function

	globals map[*ir.Global]uint64
	layouts map[*ir.Function]*frameLayout

	// stack is the explicit call stack; the machine executes the top frame.
	stack []*frame

	dyn      int64
	executed int64
	loads    int64
	stores   int64
	// rec records the run's trace; nil when the run does not record.
	rec     *trace.Recorder
	outputs []trace.Output
	// ops and opDefs are the operand scratch of a step.
	ops    []uint64
	opDefs []int64

	exc   *Exception
	hang  bool
	fatal error
}

// done reports whether execution must unwind.
func (vm *machine) done() bool { return vm.exc != nil || vm.hang || vm.fatal != nil }

func (vm *machine) loadGlobals() error {
	vm.layouts = make(map[*ir.Function]*frameLayout)
	globals, err := LoadGlobals(vm.mod, vm.as)
	if err != nil {
		return err
	}
	vm.globals = globals
	return nil
}

func (vm *machine) frameLayout(fn *ir.Function) *frameLayout {
	if fl, ok := vm.layouts[fn]; ok {
		return fl
	}
	size, offsets := ComputeFrameLayout(fn)
	fl := &frameLayout{size: size, offsets: offsets}
	vm.layouts[fn] = fl
	return fl
}

// frame is one activation record. Besides the register file it carries the
// full continuation — current block, instruction cursor, predecessor block
// for phi resolution, and the pending call site — so a frame stack is a
// complete, copyable program counter.
type frame struct {
	fn        *ir.Function
	regs      []uint64
	defs      []int64
	params    []uint64
	paramDefs []int64
	base      uint64
	savedSP   uint64
	layout    *frameLayout

	blk  *ir.Block
	prev *ir.Block
	ii   int

	// callInstr/callIdx identify the in-flight call instruction while a
	// callee frame is above this one; the callee's return deposits its
	// value here. callIdx is the call's own dynamic event — the injection
	// identity of the call result.
	callInstr *ir.Instr
	callIdx   int64
}

func (vm *machine) raise(kind ExcKind, in *ir.Instr, addr uint64, reason string) {
	if vm.exc != nil {
		return
	}
	vm.exc = &Exception{Kind: kind, Addr: addr, DynIdx: vm.dyn, Instr: in, Reason: reason}
}

func (vm *machine) raiseFatal(in *ir.Instr, format string, args ...any) {
	if vm.fatal == nil {
		vm.fatal = fmt.Errorf("at %s (id %d): %s", in.Op, in.ID, fmt.Sprintf(format, args...))
	}
}

// operand evaluates v within fr, returning its raw bits and defining event.
func (vm *machine) operand(fr *frame, v ir.Value) (uint64, int64) {
	switch x := v.(type) {
	case *ir.Const:
		return x.Bits, trace.NoDef
	case *ir.Param:
		return fr.params[x.Index], fr.paramDefs[x.Index]
	case *ir.Global:
		return vm.globals[x], trace.NoDef
	case *ir.Instr:
		return fr.regs[x.LocalID], fr.defs[x.LocalID]
	default:
		return 0, trace.NoDef
	}
}

// pushFrame enters fn with the given raw argument values, which it
// copies (they may be a step's operand scratch): it reserves the stack
// frame and pushes the activation record. Stack exhaustion raises SIGSEGV
// (as on Linux) without pushing.
func (vm *machine) pushFrame(fn *ir.Function, args []uint64, argDefs []int64) {
	fl := vm.frameLayout(fn)
	savedSP := vm.as.SP()
	base, err := vm.as.PushFrame(fl.size)
	if err != nil {
		// Stack exhaustion delivers SIGSEGV on Linux.
		vm.raise(ExcSegFault, fn.Entry().Instrs[0], vm.as.SP()-fl.size, "stack overflow")
		return
	}
	// One allocation each holds the registers and then the parameters.
	nl := fn.NumLocals()
	regs := append(make([]uint64, nl, nl+len(args)), args...)
	defs := append(make([]int64, nl, nl+len(argDefs)), argDefs...)
	fr := &frame{
		fn:        fn,
		regs:      regs[:nl:nl],
		defs:      defs[:nl:nl],
		params:    regs[nl:],
		paramDefs: defs[nl:],
		base:      base,
		savedSP:   savedSP,
		layout:    fl,
		blk:       fn.Entry(),
	}
	for i := range fr.defs {
		fr.defs[i] = trace.NoDef
	}
	vm.stack = append(vm.stack, fr)
}

// popFrame returns from the top frame, restoring the stack pointer and
// depositing the return value into the caller's pending call register. The
// call result's injection identity is the call site's own event (callIdx);
// its dataflow definition is the callee's producing event when there is
// one.
func (vm *machine) popFrame(retVal uint64, retDef int64) {
	child := vm.stack[len(vm.stack)-1]
	vm.stack = vm.stack[:len(vm.stack)-1]
	vm.as.PopFrame(child.savedSP)
	if len(vm.stack) == 0 {
		return // entry function returned; the machine halts
	}
	fr := vm.stack[len(vm.stack)-1]
	in := fr.callInstr
	fr.callInstr = nil
	if in == nil || in.Ty.IsVoid() {
		fr.callIdx = 0
		return
	}
	if retDef == trace.NoDef {
		// The call's result register is defined by the callee's producing
		// event; fall back to the call site itself.
		retDef = fr.callIdx
	}
	vm.setResultWithDef(fr, in, fr.callIdx, retDef, retVal)
	if vm.rec != nil {
		vm.rec.SetResult(fr.callIdx, fr.regs[in.LocalID])
	}
	fr.callIdx = 0
}

// run drives the machine until it halts: empty stack, exception, hang,
// or fatal error.
func (vm *machine) run() {
	for !vm.done() && len(vm.stack) > 0 {
		vm.step()
	}
}

// operands returns the machine's operand scratch, sized for a step of in.
func (vm *machine) operands(in *ir.Instr) ([]uint64, []int64) {
	n := len(in.Args)
	if cap(vm.ops) < n {
		// Sized for any common instruction, so a run allocates it once.
		vm.ops, vm.opDefs = make([]uint64, max(n, 8)), make([]int64, max(n, 8))
	}
	return vm.ops[:n], vm.opDefs[:n]
}

// record records a new trace event of in with the given operands, when
// the run records.
func (vm *machine) record(in *ir.Instr, ops []uint64, defs []int64) {
	if vm.rec == nil {
		return
	}
	rops, rdefs := vm.rec.Begin(in)
	copy(rops, ops)
	for i, d := range defs {
		rdefs[i] = int32(d)
	}
}

// retire assigns the next dynamic index and returns it.
func (vm *machine) retire() int64 {
	idx := vm.dyn
	vm.dyn++
	vm.executed++
	if vm.dyn > vm.cfg.MaxDynInstrs {
		vm.hang = true
	}
	return idx
}

// inject applies a pending fault to the register being defined at event
// idx, if it is the injection target.
func (vm *machine) inject(idx int64, in *ir.Instr, bits uint64) uint64 {
	inj := vm.cfg.Injection
	if inj == nil || inj.Applied || inj.Event != idx {
		return bits
	}
	width := in.Type().BitWidth()
	mask := inj.Mask
	if mask == 0 {
		if inj.Bit >= width {
			return bits
		}
		mask = 1 << uint(inj.Bit)
	}
	mask = ir.TruncateToWidth(mask, width)
	if mask == 0 {
		return bits
	}
	inj.Original = bits
	inj.Applied = true
	return bits ^ mask
}

// setResult writes a value-producing instruction's result register,
// applying any pending fault injection targeted at this event.
func (vm *machine) setResult(fr *frame, in *ir.Instr, idx int64, bits uint64) {
	if in.Ty.IsInt() {
		bits = ir.TruncateToWidth(bits, in.Ty.Bits)
	}
	bits = vm.inject(idx, in, bits)
	fr.regs[in.LocalID] = bits
	fr.defs[in.LocalID] = idx
	if vm.rec != nil {
		vm.rec.SetResult(idx, bits)
	}
}

// stepPhis executes the block's leading phi group as one atomic unit: all
// phis evaluate against the incoming edge in parallel, then all results
// are assigned.
func (vm *machine) stepPhis(fr *frame) {
	blk := fr.blk
	nPhis := 0
	for _, in := range blk.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		nPhis++
	}
	type phiVal struct {
		bits uint64
		idx  int64
	}
	vals := make([]phiVal, nPhis)
	for i := 0; i < nPhis; i++ {
		in := blk.Instrs[i]
		found := false
		for ei, from := range in.PhiIn {
			if from == fr.prev {
				bits, def := vm.operand(fr, in.Args[ei])
				if vm.rec != nil {
					ops, defs := vm.rec.Begin(in)
					ops[0], defs[0] = bits, int32(def)
				}
				vals[i] = phiVal{bits: bits, idx: vm.retire()}
				found = true
				break
			}
		}
		if !found {
			if fr.prev == nil {
				// A phi in the entry block, reached by a call.
				vm.raiseFatal(in, "phi has no incoming edge at function entry")
			} else {
				vm.raiseFatal(in, "phi has no incoming edge from %s", fr.prev.Ident())
			}
			return
		}
		if vm.done() {
			return
		}
	}
	for i := 0; i < nPhis; i++ {
		vm.setResult(fr, blk.Instrs[i], vals[i].idx, vals[i].bits)
	}
	fr.ii = nPhis
}

// step executes one unit on the top frame.
func (vm *machine) step() {
	fr := vm.stack[len(vm.stack)-1]
	blk := fr.blk
	if fr.ii >= len(blk.Instrs) {
		vm.raiseFatal(blk.Instrs[len(blk.Instrs)-1], "block fell through without terminator")
		return
	}
	in := blk.Instrs[fr.ii]
	if in.Op == ir.OpPhi {
		if fr.ii == 0 {
			vm.stepPhis(fr)
		} else {
			vm.raiseFatal(in, "phi after non-phi instruction")
		}
		return
	}

	ops, defs := vm.operands(in)
	for ai, a := range in.Args {
		ops[ai], defs[ai] = vm.operand(fr, a)
	}
	vm.record(in, ops, defs)
	idx := vm.retire()
	if vm.hang {
		return
	}
	fr.ii++ // control-flow cases below override the cursor

	switch {
	case in.Op.IsIntArith():
		res, ok := vm.intArith(in, ops[0], ops[1])
		if !ok {
			return
		}
		vm.setResult(fr, in, idx, res)
	case in.Op.IsFloatArith():
		vm.setResult(fr, in, idx, floatArith(in, ops[0], ops[1]))
	case in.Op == ir.OpICmp:
		vm.setResult(fr, in, idx, icmp(in, ops[0], ops[1]))
	case in.Op == ir.OpFCmp:
		vm.setResult(fr, in, idx, fcmp(in, ops[0], ops[1]))
	case in.Op.IsConversion():
		vm.setResult(fr, in, idx, convert(in, ops[0]))
	case in.Op == ir.OpAlloca:
		vm.setResult(fr, in, idx, fr.base+fr.layout.offsets[in])
	case in.Op == ir.OpLoad:
		res, ok := vm.load(in, idx, ops[0])
		if !ok {
			return
		}
		vm.setResult(fr, in, idx, res)
	case in.Op == ir.OpStore:
		if !vm.store(in, idx, ops[0], ops[1]) {
			return
		}
	case in.Op == ir.OpGEP:
		stride := uint64(in.Elem.Size())
		off := uint64(ir.SignExtend(ops[1], in.Args[1].Type().BitWidth()))
		vm.setResult(fr, in, idx, ops[0]+stride*off)
	case in.Op == ir.OpSelect:
		if ops[0]&1 != 0 {
			vm.setResult(fr, in, idx, ops[1])
		} else {
			vm.setResult(fr, in, idx, ops[2])
		}
	case in.Op == ir.OpBr:
		fr.prev, fr.blk, fr.ii = blk, in.Blocks[0], 0
	case in.Op == ir.OpCondBr:
		next := in.Blocks[1]
		if ops[0]&1 != 0 {
			next = in.Blocks[0]
		}
		fr.prev, fr.blk, fr.ii = blk, next, 0
	case in.Op == ir.OpRet:
		if len(ops) == 1 {
			vm.popFrame(ops[0], defs[0])
		} else {
			vm.popFrame(0, trace.NoDef)
		}
	case in.Op == ir.OpCall:
		fr.callInstr, fr.callIdx = in, idx
		vm.pushFrame(in.Callee, ops, defs)
	case in.Op == ir.OpMalloc:
		vm.setResult(fr, in, idx, vm.malloc(ops[0]))
	case in.Op == ir.OpFree:
		if err := vm.as.Free(ops[0]); err != nil {
			vm.raise(ExcAbort, in, ops[0], err.Error())
			return
		}
	case in.Op == ir.OpOutput:
		vm.outputs = append(vm.outputs, trace.Output{
			EventIdx: idx,
			Def:      defs[0],
			Bits:     ops[0],
			Width:    in.Args[0].Type().BitWidth(),
		})
	case in.Op == ir.OpAbort:
		vm.raise(ExcAbort, in, 0, "abort() called")
	case in.Op == ir.OpDetect:
		vm.raise(ExcDetected, in, 0, "duplication check mismatch")
	case in.Op.IsMathUnary():
		vm.setResult(fr, in, idx, mathUnary(in, ops[0]))
	case in.Op.IsMathBinary():
		vm.setResult(fr, in, idx, mathBinary(in, ops[0], ops[1]))
	default:
		vm.raiseFatal(in, "unimplemented opcode")
	}
}

// setResultWithDef is setResult with an explicit defining event (used for
// call results, which are defined by the callee's return-value producer).
// idx is the executing event (the injection target identity); def is the
// dataflow definition recorded for DDG purposes.
func (vm *machine) setResultWithDef(fr *frame, in *ir.Instr, idx, def int64, bits uint64) {
	if in.Ty.IsInt() {
		bits = ir.TruncateToWidth(bits, in.Ty.Bits)
	}
	bits = vm.inject(idx, in, bits)
	fr.regs[in.LocalID] = bits
	fr.defs[in.LocalID] = def
}

// heapCap bounds a single allocation; real malloc returns NULL for
// absurd sizes (e.g. after a bit flip in the size register), and the
// subsequent NULL-page access faults.
const heapCap = 1 << 31

func (vm *machine) malloc(size uint64) uint64 {
	if size > heapCap {
		return 0
	}
	addr, err := vm.as.Malloc(size)
	if err != nil {
		return 0
	}
	return addr
}

func (vm *machine) alignOK(in *ir.Instr, addr uint64) bool {
	size := in.Elem.Size()
	if size <= 1 {
		return true
	}
	var req int64
	switch vm.cfg.Align {
	case AlignNone:
		return true
	case AlignNatural:
		req = in.Elem.Align()
	default: // AlignFourByte
		req = in.Elem.Align()
		if req > 4 {
			req = 4
		}
	}
	return addr%uint64(req) == 0
}

func (vm *machine) load(in *ir.Instr, idx int64, addr uint64) (uint64, bool) {
	vm.loads++
	size := in.Elem.Size()
	if vm.rec != nil {
		vm.rec.SetAccess(idx, addr, vm.as.SP(), vm.as.Version())
	}
	if !vm.alignOK(in, addr) {
		vm.raise(ExcMisaligned, in, addr, "misaligned load")
		return 0, false
	}
	if err := vm.as.CheckAccess(addr, size, false); err != nil {
		vm.raise(ExcSegFault, in, addr, err.Error())
		return 0, false
	}
	v := vm.as.ReadUint(addr, size)
	if in.Ty.IsInt() {
		v = ir.TruncateToWidth(v, in.Ty.Bits)
	}
	if vm.rec != nil {
		vm.rec.SetLoadDef(idx, addr)
	}
	return v, true
}

func (vm *machine) store(in *ir.Instr, idx int64, val, addr uint64) bool {
	vm.stores++
	size := in.Elem.Size()
	if vm.rec != nil {
		vm.rec.SetAccess(idx, addr, vm.as.SP(), vm.as.Version())
	}
	if !vm.alignOK(in, addr) {
		vm.raise(ExcMisaligned, in, addr, "misaligned store")
		return false
	}
	if err := vm.as.CheckAccess(addr, size, true); err != nil {
		vm.raise(ExcSegFault, in, addr, err.Error())
		return false
	}
	vm.as.WriteUint(addr, size, val)
	if vm.rec != nil {
		vm.rec.SetStore(idx, addr, size)
	}
	return true
}

// intArith evaluates two-operand integer arithmetic, raising ExcArith on
// division errors. Results wrap modulo the type width.
func (vm *machine) intArith(in *ir.Instr, a, b uint64) (uint64, bool) {
	w := in.Ty.Bits
	switch in.Op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpSDiv, ir.OpSRem:
		sa, sb := ir.SignExtend(a, w), ir.SignExtend(b, w)
		if sb == 0 {
			vm.raise(ExcArith, in, 0, "integer division by zero")
			return 0, false
		}
		minInt := int64(-1) << uint(w-1)
		if sa == minInt && sb == -1 {
			vm.raise(ExcArith, in, 0, "integer division overflow")
			return 0, false
		}
		if in.Op == ir.OpSDiv {
			return uint64(sa / sb), true
		}
		return uint64(sa % sb), true
	case ir.OpUDiv, ir.OpURem:
		if b == 0 {
			vm.raise(ExcArith, in, 0, "integer division by zero")
			return 0, false
		}
		if in.Op == ir.OpUDiv {
			return a / b, true
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		if b >= uint64(w) {
			return 0, true
		}
		return a << b, true
	case ir.OpLShr:
		if b >= uint64(w) {
			return 0, true
		}
		return a >> b, true
	case ir.OpAShr:
		sa := ir.SignExtend(a, w)
		if b >= uint64(w) {
			b = uint64(w - 1)
		}
		return uint64(sa >> b), true
	default:
		vm.raiseFatal(in, "not integer arithmetic")
		return 0, false
	}
}

func floatArith(in *ir.Instr, a, b uint64) uint64 {
	if in.Ty.Bits == 32 {
		x, y := math.Float32frombits(uint32(a)), math.Float32frombits(uint32(b))
		var r float32
		switch in.Op {
		case ir.OpFAdd:
			r = x + y
		case ir.OpFSub:
			r = x - y
		case ir.OpFMul:
			r = x * y
		case ir.OpFDiv:
			r = x / y // IEEE: yields Inf/NaN, no trap
		}
		return uint64(math.Float32bits(r))
	}
	x, y := math.Float64frombits(a), math.Float64frombits(b)
	var r float64
	switch in.Op {
	case ir.OpFAdd:
		r = x + y
	case ir.OpFSub:
		r = x - y
	case ir.OpFMul:
		r = x * y
	case ir.OpFDiv:
		r = x / y
	}
	return math.Float64bits(r)
}

func mathUnary(in *ir.Instr, a uint64) uint64 {
	f := func(x float64) float64 {
		switch in.Op {
		case ir.OpSqrt:
			return math.Sqrt(x)
		case ir.OpFAbs:
			return math.Abs(x)
		case ir.OpExp:
			return math.Exp(x)
		case ir.OpLog:
			return math.Log(x)
		case ir.OpSin:
			return math.Sin(x)
		case ir.OpCos:
			return math.Cos(x)
		default:
			return x
		}
	}
	if in.Ty.Bits == 32 {
		return uint64(math.Float32bits(float32(f(float64(math.Float32frombits(uint32(a)))))))
	}
	return math.Float64bits(f(math.Float64frombits(a)))
}

func mathBinary(in *ir.Instr, a, b uint64) uint64 {
	f := func(x, y float64) float64 {
		switch in.Op {
		case ir.OpPow:
			return math.Pow(x, y)
		case ir.OpFMin:
			return math.Min(x, y)
		case ir.OpFMax:
			return math.Max(x, y)
		default:
			return x
		}
	}
	if in.Ty.Bits == 32 {
		x := float64(math.Float32frombits(uint32(a)))
		y := float64(math.Float32frombits(uint32(b)))
		return uint64(math.Float32bits(float32(f(x, y))))
	}
	return math.Float64bits(f(math.Float64frombits(a), math.Float64frombits(b)))
}

func icmp(in *ir.Instr, a, b uint64) uint64 {
	w := in.Args[0].Type().BitWidth()
	sa, sb := ir.SignExtend(a, w), ir.SignExtend(b, w)
	var r bool
	switch in.Pred {
	case ir.IEQ:
		r = a == b
	case ir.INE:
		r = a != b
	case ir.ISLT:
		r = sa < sb
	case ir.ISLE:
		r = sa <= sb
	case ir.ISGT:
		r = sa > sb
	case ir.ISGE:
		r = sa >= sb
	case ir.IULT:
		r = a < b
	case ir.IULE:
		r = a <= b
	case ir.IUGT:
		r = a > b
	case ir.IUGE:
		r = a >= b
	}
	if r {
		return 1
	}
	return 0
}

func fcmp(in *ir.Instr, a, b uint64) uint64 {
	var x, y float64
	if in.Args[0].Type().Bits == 32 {
		x, y = float64(math.Float32frombits(uint32(a))), float64(math.Float32frombits(uint32(b)))
	} else {
		x, y = math.Float64frombits(a), math.Float64frombits(b)
	}
	var r bool
	switch in.Pred {
	case ir.FOEQ:
		r = x == y
	case ir.FONE:
		r = x != y && !math.IsNaN(x) && !math.IsNaN(y)
	case ir.FOLT:
		r = x < y
	case ir.FOLE:
		r = x <= y
	case ir.FOGT:
		r = x > y
	case ir.FOGE:
		r = x >= y
	}
	if r {
		return 1
	}
	return 0
}

// convert evaluates a conversion from its instruction's opcode and types,
// read per event. The VM fixes both at compile time; this
// instruction-driven form, like floatArith and fcmp, is the oracle its
// differential tests compare against.
func convert(in *ir.Instr, a uint64) uint64 {
	from := in.Args[0].Type()
	to := in.Ty
	switch in.Op {
	case ir.OpTrunc:
		return ir.TruncateToWidth(a, to.Bits)
	case ir.OpZExt, ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr:
		return a
	case ir.OpSExt:
		return uint64(ir.SignExtend(a, from.Bits))
	case ir.OpFPToSI:
		var f float64
		if from.Bits == 32 {
			f = float64(math.Float32frombits(uint32(a)))
		} else {
			f = math.Float64frombits(a)
		}
		return uint64(clampToInt(f, to.Bits))
	case ir.OpSIToFP:
		s := float64(ir.SignExtend(a, from.Bits))
		if to.Bits == 32 {
			return uint64(math.Float32bits(float32(s)))
		}
		return math.Float64bits(s)
	case ir.OpFPTrunc:
		return uint64(math.Float32bits(float32(math.Float64frombits(a))))
	case ir.OpFPExt:
		return math.Float64bits(float64(math.Float32frombits(uint32(a))))
	default:
		return a
	}
}

// clampToInt converts f to a signed integer of the given width with
// saturation (deterministic where LLVM would be undefined).
func clampToInt(f float64, bits int) int64 {
	if math.IsNaN(f) {
		return 0
	}
	maxV := float64(int64(1)<<uint(bits-1) - 1)
	minV := -float64(int64(1) << uint(bits-1))
	switch {
	case f >= maxV:
		return int64(1)<<uint(bits-1) - 1
	case f <= minV:
		return -int64(1) << uint(bits-1)
	default:
		return int64(f)
	}
}

// ErrNoMain reports a module without an entry function.
var ErrNoMain = errors.New("module has no entry function")
