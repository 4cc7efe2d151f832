package vm

import (
	"fmt"
	"math"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/trace"
)

// heapCap bounds a single allocation, matching the walker: real malloc
// returns NULL for absurd sizes (e.g. after a bit flip in the size
// register) and the subsequent NULL-page access faults.
const heapCap = 1 << 31

// cont is a frame's continuation: everything about an activation but
// its register file. A captured frame keeps it whole (exec.go).
type cont struct {
	base    uint64
	savedSP uint64
	pc      int32
	prev    *ir.Block

	callInstr *ir.Instr
	callIdx   int64

	fnIdx int32
}

// vframe is one activation record: a flat register file (locals, params,
// constants, globals) plus the continuation state the walker tracks.
type vframe struct {
	cont
	fc   *fnCode
	regs []uint64
	defs []int64
}

// machine executes compiled bytecode. It mirrors the walker's machine
// field-for-field where the two must agree (dyn/executed counters,
// exception/hang/fatal state, outputs, trace events).
//
// Machines are pooled per program (Program.machine, machine.release): a
// run reuses the frames, fixed register tails, stack slice and phi scratch
// of an earlier run instead of allocating them again.
type machine struct {
	prog    *Program
	cfg     interp.Config
	as      *mem.AddressSpace
	globals map[*ir.Global]uint64

	// fixed caches, per function, the constant-pool + global-address
	// tail of the register file; pool recycles frames so a call copies
	// only arguments. Both hold global addresses for layout.
	fixed  [][]uint64
	pool   [][]*vframe
	layout mem.Layout

	stack []*vframe

	dyn int64
	// start is dyn when the run began (a resumed run's snapshot event);
	// the run executed dyn - start events, or executed once it converged
	// and dyn jumped to the golden end.
	start    int64
	executed int64
	loads    int64
	stores   int64
	max      int64
	inj      *interp.Injection
	// injAt is the event whose result the pending fault corrupts, or -1
	// once injectBits has run (or with no fault), so the dispatch loop
	// tests for the injection with one compare.
	injAt int64
	// rec records the run's trace; nil when the run does not record.
	rec     *trace.Recorder
	outputs []trace.Output
	// outCap is the capacity outputs takes when the run emits its first
	// output: the golden run's output count when the run knows it.
	outCap int

	exc       *interp.Exception
	hang      bool
	fatal     error
	converged bool
	// hook, when set, is called before a dispatch once dyn reaches wake;
	// a run without one keeps wake at math.MaxInt64, so the dispatch loop
	// pays one compare per dispatch either way.
	hook hook
	wake int64
	// conv is a resumed run's convergence cursor; hook points at it when
	// the run checks convergence.
	conv convState

	phiVals []uint64
	phiIdx  []int64
	// alignMask is the run's alignment rule (alignMasks), by an access's
	// natural alignment.
	alignMask [9]uint64
}

// machine takes a machine from the program's pool, or builds one, and
// readies it for a run under cfg on as. A pooled machine keeps its frames,
// fixed register tails, stack slice and phi scratch; a run under another
// layout than its last drops the tails and the pooled frames holding
// them, since global addresses depend on the layout.
func (p *Program) machine(cfg interp.Config, as *mem.AddressSpace, globals map[*ir.Global]uint64) *machine {
	m, _ := p.machines.Get().(*machine)
	if m == nil {
		m = &machine{
			prog:    p,
			fixed:   make([][]uint64, len(p.fns)),
			pool:    make([][]*vframe, len(p.fns)),
			layout:  cfg.Layout,
			phiVals: make([]uint64, p.maxPhi),
			phiIdx:  make([]int64, p.maxPhi),
		}
	}
	m.cfg, m.as, m.globals = cfg, as, globals
	m.alignMask = alignMasks(cfg.Align)
	if cfg.Layout != m.layout {
		m.layout = cfg.Layout
		clear(m.fixed)
		clear(m.pool)
	}
	m.max, m.inj, m.injAt, m.wake = cfg.MaxDynInstrs, cfg.Injection, -1, math.MaxInt64
	if m.inj != nil && !m.inj.Applied {
		m.injAt = m.inj.Event
	}
	return m
}

// release ends the machine's run and returns it to its program's pool:
// the frames left on the stack go back to the frame pools and the address
// space gives back its pages. Everything else that ties the machine to
// the run is dropped — hook and convergence cursor, address space,
// globals, injection, outputs, exception — or the pool would keep a
// finished campaign's checkpoints reachable.
func (m *machine) release() {
	m.dropStack()
	m.as.Release()
	*m = machine{
		prog:    m.prog,
		fixed:   m.fixed,
		pool:    m.pool,
		layout:  m.layout,
		stack:   m.stack,
		phiVals: m.phiVals,
		phiIdx:  m.phiIdx,
	}
	m.prog.machines.Put(m)
}

// Run executes the program's entry function under cfg, producing a
// Result bit-identical to interp.Run on the same module.
func (p *Program) Run(cfg interp.Config) (*interp.Result, error) {
	m, err := p.start(cfg)
	if err != nil {
		return nil, err
	}
	m.run()
	return m.finish()
}

// start readies a machine for cfg with the globals loaded and the entry
// frame pushed.
func (p *Program) start(cfg interp.Config) (*machine, error) {
	cfg, entry, err := interp.Normalize(p.mod, cfg)
	if err != nil {
		return nil, err
	}
	as := mem.New(cfg.Layout)
	globals, err := interp.LoadGlobals(p.mod, as)
	if err != nil {
		return nil, fmt.Errorf("interp: loading globals: %w", err)
	}
	m := p.machine(cfg, as, globals)
	if cfg.Record {
		m.rec = trace.NewRecorder(p.mod)
	}
	m.pushFrame(p.fnIdx[entry], nil, nil)
	return m, nil
}

// finish assembles the Result exactly as the walker does, then releases
// the machine.
func (m *machine) finish() (*interp.Result, error) {
	if !m.converged {
		m.executed = m.dyn - m.start
	}
	res := &interp.Result{
		Outputs:   m.outputs,
		Exception: m.exc,
		Hang:      m.hang,
		DynInstrs: m.dyn,
		Executed:  m.executed,
		Converged: m.converged,
	}
	if m.rec != nil {
		var err error
		if res.Trace, err = m.rec.Finish(m.outputs, m.as.Snapshots(), m.cfg.Layout); err != nil && m.fatal == nil {
			m.fatal = err
		}
	}
	m.flushObs()
	err := m.fatal
	m.release()
	return res, err
}

func (m *machine) raise(kind interp.ExcKind, in *ir.Instr, addr uint64, reason string) {
	if m.exc != nil {
		return
	}
	m.exc = &interp.Exception{Kind: kind, Addr: addr, DynIdx: m.dyn, Instr: in, Reason: reason}
}

func (m *machine) raiseFatal(in *ir.Instr, format string, args ...any) {
	if m.fatal == nil {
		m.fatal = fmt.Errorf("at %s (id %d): %s", in.Op, in.ID, fmt.Sprintf(format, args...))
	}
}

// fixedFor returns the constant-pool + global-address values for fn,
// building them once per machine and layout.
func (m *machine) fixedFor(fnIdx int32) []uint64 {
	if f := m.fixed[fnIdx]; f != nil {
		return f
	}
	fc := m.prog.fns[fnIdx]
	f := make([]uint64, len(fc.consts)+len(fc.globals))
	copy(f, fc.consts)
	for i, g := range fc.globals {
		f[len(fc.consts)+i] = m.globals[g]
	}
	m.fixed[fnIdx] = f
	return f
}

// takeFrame returns a frame for fn with its fixed register tail in place:
// a pooled one, whose locals and continuation hold what its last use left
// there, or a new one.
func (m *machine) takeFrame(fnIdx int32) *vframe {
	if frs := m.pool[fnIdx]; len(frs) > 0 {
		fr := frs[len(frs)-1]
		m.pool[fnIdx] = frs[:len(frs)-1]
		return fr
	}
	fc := m.prog.fns[fnIdx]
	fr := &vframe{
		cont: cont{fnIdx: fnIdx},
		fc:   fc,
		regs: make([]uint64, fc.nSlots),
		defs: make([]int64, fc.nSlots),
	}
	copy(fr.regs[fc.constBase:], m.fixedFor(fnIdx))
	for i := range fr.defs {
		fr.defs[i] = trace.NoDef
	}
	return fr
}

func (m *machine) putFrame(fr *vframe) {
	m.pool[fr.fnIdx] = append(m.pool[fr.fnIdx], fr)
}

// dropStack returns every frame on the stack to the frame pools.
func (m *machine) dropStack() {
	for _, fr := range m.stack {
		m.putFrame(fr)
	}
	m.stack = m.stack[:0]
}

// pushFrame enters fn with arguments copied from the caller's slots.
// Stack exhaustion raises SIGSEGV without pushing, like the walker.
func (m *machine) pushFrame(fnIdx int32, caller *vframe, argSlots []uint16) {
	fc := m.prog.fns[fnIdx]
	savedSP := m.as.SP()
	base, err := m.as.PushFrame(fc.frameSize)
	if err != nil {
		m.raise(interp.ExcSegFault, fc.entryInstr, m.as.SP()-fc.frameSize, "stack overflow")
		return
	}
	fr := m.takeFrame(fnIdx)
	clear(fr.regs[:fc.nLocals])
	for i := range fc.nLocals {
		fr.defs[i] = trace.NoDef
	}
	fr.callInstr, fr.callIdx, fr.prev = nil, 0, nil
	pb := fc.nLocals
	for i, s := range argSlots {
		fr.regs[pb+i] = caller.regs[s]
		fr.defs[pb+i] = caller.defs[s]
	}
	fr.base, fr.savedSP = base, savedSP
	fr.pc = fc.blockPC[0]
	m.stack = append(m.stack, fr)
}

// recordEvent records the trace event for the instruction with the given
// LocalID, reading operands from their slots in Args order.
func (m *machine) recordEvent(fr *vframe, fc *fnCode, localID int32) {
	ops, defs := m.rec.Begin(fc.instrs[localID])
	for i, s := range fc.meta[localID].argSlots {
		ops[i] = fr.regs[s]
		defs[i] = int32(fr.defs[s])
	}
}

// injectBits applies the pending fault to a result being defined; the
// caller has already checked that this event is the target. The fault
// has had its one chance either way, so injAt is cleared.
func (m *machine) injectBits(in *ir.Instr, bits uint64) uint64 {
	inj := m.inj
	m.injAt = -1
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
	if m.hook != nil {
		// A convergence hook sleeps until the fault applies; wake it for
		// the next dispatch.
		m.wake = m.dyn
	}
	return bits ^ mask
}

// run is the dispatch loop. The outer loop re-reads the frame stack
// after calls and returns; inner executes straight-line code of the top
// frame with everything hot in locals.
func (m *machine) run() {
	for m.live() {
		fr := m.stack[len(m.stack)-1]
		inner(m, fr, fr.fc, fr.fc.code, fr.regs, fr.defs, fr.pc)
	}
}

// live reports whether the machine has work left: a frame to execute and
// no exception, hang, or fatal error.
func (m *machine) live() bool {
	return len(m.stack) > 0 && m.exc == nil && !m.hang && m.fatal == nil
}

// inner executes until the top frame changes or the machine halts. It is
// a free function so the hot state lives in locals the compiler can keep
// in registers.
func inner(m *machine, fr *vframe, fc *fnCode, code []uint64, regs []uint64, defs []int64, pc int32) {
	for {
		if m.dyn >= m.wake {
			fr.pc = pc
			if m.hook.at(m) {
				return
			}
		}
		w0 := code[pc]
		w1 := code[pc+1]
		op := vop(w0 >> 56)
		dst := int(w0 >> 42 & (maxSlots - 1))
		a := int(w0 >> 28 & (maxSlots - 1))
		b := int(w0 >> 14 & (maxSlots - 1))
		cc := int(w0 & (maxSlots - 1))
		src := int32(uint32(w1 >> 32))
		aux := uint32(w1)

		// Retire: assign the dynamic index, record, check the budget.
		// vopPhiGroup and vopTrap manage retirement themselves (the
		// walker traps without retiring and retires phi groups member by
		// member).
		if op == vopPhiGroup {
			fr.pc = pc
			pc = m.stepPhiGroup(fr, fc, aux)
			if m.exc != nil || m.hang || m.fatal != nil {
				return
			}
			continue
		}
		if op == vopTrap {
			t := fc.trapTab[aux]
			switch t.kind {
			case trapFellThrough:
				m.raiseFatal(t.in, "block fell through without terminator")
			default:
				m.raiseFatal(t.in, "phi after non-phi instruction")
			}
			return
		}
		idx := m.dyn
		m.dyn++
		if m.rec != nil {
			m.recordEvent(fr, fc, src)
		}
		if m.dyn > m.max {
			m.hang = true
			fr.pc = pc
			return
		}
		pc += 2 // control flow below overrides

		var r uint64
		switch op {
		case vopAdd:
			r = truncTo(regs[a]+regs[b], aux)
		case vopSub:
			r = truncTo(regs[a]-regs[b], aux)
		case vopMul:
			r = truncTo(regs[a]*regs[b], aux)
		case vopAnd:
			r = truncTo(regs[a]&regs[b], aux)
		case vopOr:
			r = truncTo(regs[a]|regs[b], aux)
		case vopXor:
			r = truncTo(regs[a]^regs[b], aux)
		case vopShl:
			x, sh := regs[a], regs[b]
			if sh >= uint64(aux) {
				r = 0
			} else {
				r = truncTo(x<<sh, aux)
			}
		case vopLShr:
			x, sh := regs[a], regs[b]
			if sh >= uint64(aux) {
				r = 0
			} else {
				r = truncTo(x>>sh, aux)
			}
		case vopAShr:
			sa := ir.SignExtend(regs[a], int(aux))
			sh := regs[b]
			if sh >= uint64(aux) {
				sh = uint64(aux - 1)
			}
			r = truncTo(uint64(sa>>sh), aux)
		case vopSDiv, vopSRem:
			w := int(aux)
			sa, sb := ir.SignExtend(regs[a], w), ir.SignExtend(regs[b], w)
			if sb == 0 {
				m.raise(interp.ExcArith, fc.instrs[src], 0, "integer division by zero")
				return
			}
			minInt := int64(-1) << uint(w-1)
			if sa == minInt && sb == -1 {
				m.raise(interp.ExcArith, fc.instrs[src], 0, "integer division overflow")
				return
			}
			if op == vopSDiv {
				r = truncTo(uint64(sa/sb), aux)
			} else {
				r = truncTo(uint64(sa%sb), aux)
			}
		case vopUDiv, vopURem:
			x, y := regs[a], regs[b]
			if y == 0 {
				m.raise(interp.ExcArith, fc.instrs[src], 0, "integer division by zero")
				return
			}
			if op == vopUDiv {
				r = truncTo(x/y, aux)
			} else {
				r = truncTo(x%y, aux)
			}
		case vopFAdd32:
			r = f32bits(f32(regs[a]) + f32(regs[b]))
		case vopFSub32:
			r = f32bits(f32(regs[a]) - f32(regs[b]))
		case vopFMul32:
			r = f32bits(f32(regs[a]) * f32(regs[b]))
		case vopFDiv32:
			r = f32bits(f32(regs[a]) / f32(regs[b]))
		case vopFAdd64:
			r = math.Float64bits(math.Float64frombits(regs[a]) + math.Float64frombits(regs[b]))
		case vopFSub64:
			r = math.Float64bits(math.Float64frombits(regs[a]) - math.Float64frombits(regs[b]))
		case vopFMul64:
			r = math.Float64bits(math.Float64frombits(regs[a]) * math.Float64frombits(regs[b]))
		case vopFDiv64:
			r = math.Float64bits(math.Float64frombits(regs[a]) / math.Float64frombits(regs[b]))
		case vopMathUnary:
			r = interp.MathUnaryOp(fc.instrs[src], regs[a])
		case vopMathBinary:
			r = interp.MathBinaryOp(fc.instrs[src], regs[a], regs[b])
		case vopICmp:
			r = icmpBits(aux, regs[a], regs[b])
		case vopFCmp32:
			r = fcmpBits(aux, float64(f32(regs[a])), float64(f32(regs[b])))
		case vopFCmp64:
			r = fcmpBits(aux, math.Float64frombits(regs[a]), math.Float64frombits(regs[b]))
		case vopConvMask:
			r = truncTo(regs[a], aux)
		case vopSExt:
			r = truncTo(uint64(sext(regs[a], cc)), aux)
		case vopFPToSI32:
			r = fptosi(float64(f32(regs[a])), aux)
		case vopFPToSI64:
			r = fptosi(math.Float64frombits(regs[a]), aux)
		case vopSIToFP32:
			r = f32bits(float32(float64(sext(regs[a], int(aux)))))
		case vopSIToFP64:
			r = math.Float64bits(float64(sext(regs[a], int(aux))))
		case vopFPTrunc:
			r = f32bits(float32(math.Float64frombits(regs[a])))
		case vopFPExt:
			r = math.Float64bits(float64(f32(regs[a])))
		case vopAlloca:
			r = fr.base + uint64(aux)
		case vopLoad:
			var ok bool
			r, ok = m.load(fc.instrs[src], idx, regs[a], aux)
			if !ok {
				return
			}
		case vopStore:
			if !m.store(fc.instrs[src], idx, regs[a], regs[b], aux) {
				return
			}
			continue
		case vopGEP:
			r = regs[a] + uint64(aux)*uint64(sext(regs[b], cc))
		case vopGEPWide:
			r = regs[a] + regs[cc]*uint64(sext(regs[b], int(aux)))
		case vopAllocaWide:
			r = fr.base + regs[a]
		case vopSelect:
			if regs[a]&1 != 0 {
				r = regs[b]
			} else {
				r = regs[cc]
			}
			r = truncTo(r, aux)
		case vopBr:
			t := &fc.brTab[aux]
			fr.prev = t.from
			pc = t.pc
			continue
		case vopCondBr:
			t := &fc.condTab[aux]
			fr.prev = t.from
			if regs[a]&1 != 0 {
				pc = t.tpc
			} else {
				pc = t.fpc
			}
			continue
		case vopRet:
			var rv uint64
			rd := trace.NoDef
			if dst == 1 {
				rv, rd = regs[a], defs[a]
			}
			m.popFrame(rv, rd)
			return
		case vopCall:
			e := &fc.callTab[aux]
			fr.callInstr, fr.callIdx = e.in, idx
			fr.pc = pc
			m.pushFrame(e.fnIdx, fr, e.args)
			return
		case vopMalloc:
			size := regs[a]
			if size > heapCap {
				r = 0
			} else if addr, err := m.as.Malloc(size); err != nil {
				r = 0
			} else {
				r = addr
			}
		case vopFree:
			if err := m.as.Free(regs[a]); err != nil {
				m.raise(interp.ExcAbort, fc.instrs[src], regs[a], err.Error())
				return
			}
			continue
		case vopOutput:
			if m.outputs == nil {
				m.outputs = make([]trace.Output, 0, m.outCap)
			}
			m.outputs = append(m.outputs, trace.Output{
				EventIdx: idx,
				Def:      defs[a],
				Bits:     regs[a],
				Width:    int(aux),
			})
			continue
		case vopAbort:
			m.raise(interp.ExcAbort, fc.instrs[src], 0, "abort() called")
			return
		case vopDetect:
			m.raise(interp.ExcDetected, fc.instrs[src], 0, "duplication check mismatch")
			return
		default:
			m.raiseFatal(fc.instrs[src], "unimplemented opcode")
			return
		}

		// Common result commit: truncation already applied per-op,
		// injection targets this event, trace records the final bits.
		if idx == m.injAt {
			r = m.injectBits(fc.instrs[src], r)
		}
		regs[dst] = r
		defs[dst] = idx
		if m.rec != nil {
			m.rec.SetResult(idx, r)
		}
	}
}

// truncTo masks v to width w; w == 0 or >= 64 passes through.
func truncTo(v uint64, w uint32) uint64 {
	if w == 0 || w >= 64 {
		return v
	}
	return v & (1<<w - 1)
}

// f32 reads the float in a register's low 32 bits; f32bits writes one.
func f32(x uint64) float32 { return math.Float32frombits(uint32(x)) }

func f32bits(f float32) uint64 { return uint64(math.Float32bits(f)) }

// fcmpBits evaluates an ordered float compare with predicate pred.
func fcmpBits(pred uint32, x, y float64) uint64 {
	var r bool
	switch ir.Pred(pred) {
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

// fptosi converts f to a w-bit signed integer exactly as the walker's
// clamp does, NaN to 0 and saturating at the bounds, and masks the result
// to w bits. At w = 64, top wraps to math.MinInt64, so the low bound
// -float64(top) is +2⁶³ and every finite f below 2⁶³ saturates to the
// minimum, as it does on the walker.
func fptosi(f float64, w uint32) uint64 {
	if math.IsNaN(f) {
		return 0
	}
	top := int64(1) << (w - 1)
	var v int64
	switch {
	case f >= float64(top-1):
		v = top - 1
	case f <= -float64(top):
		v = -top
	default:
		v = int64(f)
	}
	return truncTo(uint64(v), w)
}

// sext sign-extends the low 64-sh bits of v. For sext and sitofp
// operands, GEP indices and icmp operands the bytecode holds that shift,
// sh = 64 - width, instead of the width.
func sext(v uint64, sh int) int64 { return int64(v<<(sh&63)) >> (sh & 63) }

func icmpBits(aux uint32, x, y uint64) uint64 {
	pred := ir.Pred(aux >> 8)
	sh := int(aux & 0xff)
	var r bool
	switch pred {
	case ir.IEQ:
		r = x == y
	case ir.INE:
		r = x != y
	case ir.IULT:
		r = x < y
	case ir.IULE:
		r = x <= y
	case ir.IUGT:
		r = x > y
	case ir.IUGE:
		r = x >= y
	default:
		sx, sy := sext(x, sh), sext(y, sh)
		switch pred {
		case ir.ISLT:
			r = sx < sy
		case ir.ISLE:
			r = sx <= sy
		case ir.ISGT:
			r = sx > sy
		case ir.ISGE:
			r = sx >= sy
		}
	}
	if r {
		return 1
	}
	return 0
}

// stepPhiGroup retires the block's phi group atomically: all members
// read their incoming values and retire in order (hang checked per
// member), then all results commit. Returns the pc after the group.
func (m *machine) stepPhiGroup(fr *vframe, fc *fnCode, aux uint32) int32 {
	g := &fc.phiTab[aux]
	n := len(g.phis)
	ei, ok := g.edgeOf[fr.prev]
	limit := n
	var fatalAt int32 = -1
	var e *phiEdge
	if !ok {
		limit, fatalAt = 0, 0
	} else {
		e = &g.edges[ei]
		if e.fatalAt >= 0 {
			limit, fatalAt = int(e.fatalAt), e.fatalAt
		}
	}
	for i := 0; i < limit; i++ {
		sl := e.src[i]
		bits, def := fr.regs[sl], fr.defs[sl]
		idx := m.dyn
		m.dyn++
		if m.rec != nil {
			ops, defs := m.rec.Begin(g.phis[i])
			ops[0], defs[0] = bits, int32(def)
		}
		m.phiVals[i] = bits
		m.phiIdx[i] = idx
		if m.dyn > m.max {
			m.hang = true
			return fr.pc
		}
	}
	if fatalAt >= 0 {
		if fr.prev == nil {
			m.raiseFatal(g.phis[fatalAt], "phi has no incoming edge at function entry")
		} else {
			m.raiseFatal(g.phis[fatalAt], "phi has no incoming edge from %s", fr.prev.Ident())
		}
		return fr.pc
	}
	for i := 0; i < n; i++ {
		in := g.phis[i]
		r := m.phiVals[i]
		idx := m.phiIdx[i]
		if idx == m.injAt {
			r = m.injectBits(in, r)
		}
		fr.regs[in.LocalID] = r
		fr.defs[in.LocalID] = idx
		if m.rec != nil {
			m.rec.SetResult(idx, r)
		}
	}
	return g.endPC
}

// popFrame returns from the top frame, depositing the return value into
// the caller's pending call register with the walker's exact semantics.
func (m *machine) popFrame(retVal uint64, retDef int64) {
	child := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	m.as.PopFrame(child.savedSP)
	m.putFrame(child)
	if len(m.stack) == 0 {
		return
	}
	fr := m.stack[len(m.stack)-1]
	in := fr.callInstr
	fr.callInstr = nil
	if in == nil || in.Ty.IsVoid() {
		fr.callIdx = 0
		return
	}
	if retDef == trace.NoDef {
		retDef = fr.callIdx
	}
	bits := retVal
	if in.Ty.IsInt() {
		bits = ir.TruncateToWidth(bits, in.Ty.Bits)
	}
	if fr.callIdx == m.injAt {
		bits = m.injectBits(in, bits)
	}
	fr.regs[in.LocalID] = bits
	fr.defs[in.LocalID] = retDef
	if m.rec != nil {
		m.rec.SetResult(fr.callIdx, fr.regs[in.LocalID])
	}
	fr.callIdx = 0
}

func (m *machine) load(in *ir.Instr, idx int64, addr uint64, aux uint32) (uint64, bool) {
	m.loads++
	size := int64(aux & 0xff)
	mw := aux >> 8 & 0xff
	align := aux >> 16 & 0xff
	if m.rec != nil {
		m.rec.SetAccess(idx, addr, m.as.SP(), m.as.Version())
	}
	if m.misaligned(align, addr) {
		m.raise(interp.ExcMisaligned, in, addr, "misaligned load")
		return 0, false
	}
	raw, err := m.as.LoadFast(addr, size)
	if err != nil {
		m.raise(interp.ExcSegFault, in, addr, err.Error())
		return 0, false
	}
	v := truncTo(raw, mw)
	if m.rec != nil {
		m.rec.SetLoadDef(idx, addr)
	}
	return v, true
}

func (m *machine) store(in *ir.Instr, idx int64, val, addr uint64, aux uint32) bool {
	m.stores++
	size := int64(aux & 0xff)
	align := aux >> 8 & 0xff
	if m.rec != nil {
		m.rec.SetAccess(idx, addr, m.as.SP(), m.as.Version())
	}
	if m.misaligned(align, addr) {
		m.raise(interp.ExcMisaligned, in, addr, "misaligned store")
		return false
	}
	if err := m.as.StoreFast(addr, size, val); err != nil {
		m.raise(interp.ExcSegFault, in, addr, err.Error())
		return false
	}
	if m.rec != nil {
		m.rec.SetStore(idx, addr, size)
	}
	return true
}

// oddAlign marks an alignment rule that is no power of two: an i24 asks
// for 3 bytes, and an i40, i48 or i56 under AlignNatural for 5, 6 or 7.
const oddAlign = ^uint64(0)

// alignMasks fixes a run's alignment rule under policy: for each natural
// alignment al of an access (1 to 8), the mask of address bits that must
// be zero, or oddAlign when the rule is al itself and no power of two.
func alignMasks(policy interp.AlignPolicy) (masks [9]uint64) {
	if policy == interp.AlignNone {
		return masks
	}
	for al := uint64(1); al < uint64(len(masks)); al++ {
		req := al
		if policy != interp.AlignNatural {
			// AlignFourByte, the default.
			req = min(al, 4)
		}
		if req&(req-1) == 0 {
			masks[al] = req - 1
		} else {
			masks[al] = oddAlign
		}
	}
	return masks
}

// misaligned reports whether an access of natural alignment al at addr
// breaks the run's alignment rule, as the walker's check would.
func (m *machine) misaligned(al uint32, addr uint64) bool {
	mask := m.alignMask[al]
	return addr&mask != 0 && (mask != oddAlign || addr%uint64(al) != 0)
}

// flushObs publishes one run's tallies (see metrics.go).
func (m *machine) flushObs() {
	noteRun(m)
}
