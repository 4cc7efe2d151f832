package vm

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/trace"
)

// heapCap bounds a single allocation, matching the walker: real malloc
// returns NULL for absurd sizes (e.g. after a bit flip in the size
// register) and the subsequent NULL-page access faults.
const heapCap = 1 << 31

// vframe is one activation record: a flat register file (locals, params,
// constants, globals) plus the continuation state the walker tracks.
type vframe struct {
	fc   *fnCode
	regs []uint64
	defs []int64

	base    uint64
	savedSP uint64
	pc      int32
	prev    *ir.Block

	callInstr *ir.Instr
	callIdx   int64

	fnIdx int32
}

// machine executes compiled bytecode. It mirrors the walker's machine
// field-for-field where the two must agree (dyn/executed counters,
// exception/hang/fatal state, outputs, trace events).
type machine struct {
	prog    *Program
	cfg     interp.Config
	as      *mem.AddressSpace
	globals map[*ir.Global]uint64

	// fixed caches, per function, the constant-pool + global-address
	// tail of the register file; pool recycles frames so a call copies
	// only arguments.
	fixed [][]uint64
	pool  [][]*vframe

	stack []*vframe

	dyn      int64
	executed int64
	loads    int64
	stores   int64
	iters    int64
	max      int64
	inj      *interp.Injection
	// rec records the run's trace; nil when the run does not record.
	rec     *trace.Recorder
	outputs []trace.Output
	memDef  map[uint64]int64

	exc       *interp.Exception
	hang      bool
	fatal     error
	converged bool
	conv      *convState

	phiVals []uint64
	phiIdx  []int64
}

func newMachine(p *Program, cfg interp.Config, as *mem.AddressSpace, globals map[*ir.Global]uint64) *machine {
	m := &machine{
		prog:    p,
		cfg:     cfg,
		as:      as,
		globals: globals,
		fixed:   make([][]uint64, len(p.fns)),
		pool:    make([][]*vframe, len(p.fns)),
		max:     cfg.MaxDynInstrs,
		inj:     cfg.Injection,
	}
	maxPhi := 0
	for _, fc := range p.fns {
		if fc.maxPhi > maxPhi {
			maxPhi = fc.maxPhi
		}
	}
	m.phiVals = make([]uint64, maxPhi)
	m.phiIdx = make([]int64, maxPhi)
	return m
}

// Run executes the program's entry function under cfg, producing a
// Result bit-identical to interp.Run on the same module.
func (p *Program) Run(cfg interp.Config) (*interp.Result, error) {
	cfg, entry, err := interp.Normalize(p.mod, cfg)
	if err != nil {
		return nil, err
	}
	as := mem.New(cfg.Layout)
	globals, err := interp.LoadGlobals(p.mod, as)
	if err != nil {
		return nil, fmt.Errorf("interp: loading globals: %w", err)
	}
	m := newMachine(p, cfg, as, globals)
	if cfg.Record {
		m.memDef = make(map[uint64]int64)
		m.rec = trace.NewRecorder(p.mod)
	}
	m.pushFrame(p.fnIdx[entry], nil, nil)
	m.run()
	return m.finish()
}

// finish assembles the Result exactly as the walker does.
func (m *machine) finish() (*interp.Result, error) {
	res := &interp.Result{
		Outputs:   m.outputs,
		Exception: m.exc,
		Hang:      m.hang,
		DynInstrs: m.dyn,
		Executed:  m.executed,
		Converged: m.converged,
	}
	if m.rec != nil {
		res.Trace = m.rec.Finish(m.outputs, m.as.Snapshots(), m.cfg.Layout)
	}
	m.flushObs()
	return res, m.fatal
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
// building them once per machine (global addresses are layout-dependent).
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

// newFrame builds a frame for fn with the fixed register tail populated.
func (m *machine) newFrame(fnIdx int32) *vframe {
	fc := m.prog.fns[fnIdx]
	if frs := m.pool[fnIdx]; len(frs) > 0 {
		fr := frs[len(frs)-1]
		m.pool[fnIdx] = frs[:len(frs)-1]
		for i := 0; i < fc.nLocals; i++ {
			fr.regs[i] = 0
			fr.defs[i] = trace.NoDef
		}
		fr.callInstr, fr.callIdx, fr.prev = nil, 0, nil
		return fr
	}
	fr := &vframe{
		fc:    fc,
		fnIdx: fnIdx,
		regs:  make([]uint64, fc.nSlots),
		defs:  make([]int64, fc.nSlots),
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
	fr := m.newFrame(fnIdx)
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
		defs[i] = fr.defs[s]
	}
}

// injectBits applies the pending fault to a result being defined; the
// caller has already checked that this event is the target.
func (m *machine) injectBits(in *ir.Instr, bits uint64) uint64 {
	inj := m.inj
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

// run is the dispatch loop. The outer loop re-reads the frame stack
// after calls and returns; the inner loop executes straight-line code of
// the top frame with everything hot in locals.
func (m *machine) run() {
	for len(m.stack) > 0 && m.exc == nil && !m.hang && m.fatal == nil {
		fr := m.stack[len(m.stack)-1]
		fc := fr.fc
		code := fc.code
		pc := fr.pc
		regs := fr.regs
		defs := fr.defs
		inner(m, fr, fc, code, regs, defs, pc)
	}
}

// inner executes until the top frame changes or the machine halts. It is
// a free function so the hot state lives in locals the compiler can keep
// in registers.
func inner(m *machine, fr *vframe, fc *fnCode, code []uint64, regs []uint64, defs []int64, pc int32) {
	iters := int64(0)
	defer func() { m.iters += iters }()
	for {
		if m.conv != nil {
			fr.pc = pc
			if m.tryConverge() {
				return
			}
		}
		iters++
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
		m.executed++
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
		case vopFArith:
			r = interp.FloatArithOp(fc.instrs[src], regs[a], regs[b])
		case vopMathUnary:
			r = interp.MathUnaryOp(fc.instrs[src], regs[a])
		case vopMathBinary:
			r = interp.MathBinaryOp(fc.instrs[src], regs[a], regs[b])
		case vopICmp:
			r = icmpBits(aux, regs[a], regs[b])
		case vopFCmp:
			r = interp.FCmpOp(fc.instrs[src], regs[a], regs[b])
		case vopConvert:
			r = truncTo(interp.ConvertOp(fc.instrs[src], regs[a]), aux)
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
			r = regs[a] + uint64(aux)*uint64(ir.SignExtend(regs[b], cc))
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
		case vopICmpBr:
			// Fused compare+branch: the icmp result is set (injection
			// included), then the following condbr retires reading the
			// committed register, exactly as two walker steps would.
			r = icmpBits(aux, regs[a], regs[b])
			if m.inj != nil && !m.inj.Applied && m.inj.Event == idx {
				r = m.injectBits(fc.instrs[src], r)
			}
			regs[dst] = r
			defs[dst] = idx
			if m.rec != nil {
				m.rec.SetResult(idx, r)
			}
			// Second half: plain condbr words at pc (already advanced).
			w3 := code[pc+1]
			src2 := int32(uint32(w3 >> 32))
			aux2 := uint32(w3)
			m.dyn++
			m.executed++
			if m.rec != nil {
				m.recordEvent(fr, fc, src2)
			}
			if m.dyn > m.max {
				m.hang = true
				fr.pc = pc
				return
			}
			t := &fc.condTab[aux2]
			fr.prev = t.from
			if regs[dst]&1 != 0 {
				pc = t.tpc
			} else {
				pc = t.fpc
			}
			continue
		case vopGEPLoad:
			// Fused address+load, same two-step commit order.
			r = regs[a] + uint64(aux)*uint64(ir.SignExtend(regs[b], cc))
			if m.inj != nil && !m.inj.Applied && m.inj.Event == idx {
				r = m.injectBits(fc.instrs[src], r)
			}
			regs[dst] = r
			defs[dst] = idx
			if m.rec != nil {
				m.rec.SetResult(idx, r)
			}
			w2 := code[pc]
			w3 := code[pc+1]
			dst2 := int(w2 >> 42 & (maxSlots - 1))
			src2 := int32(uint32(w3 >> 32))
			aux2 := uint32(w3)
			idx2 := m.dyn
			m.dyn++
			m.executed++
			if m.rec != nil {
				m.recordEvent(fr, fc, src2)
			}
			if m.dyn > m.max {
				m.hang = true
				fr.pc = pc
				return
			}
			lv, ok := m.load(fc.instrs[src2], idx2, regs[dst], aux2)
			if !ok {
				return
			}
			if m.inj != nil && !m.inj.Applied && m.inj.Event == idx2 {
				lv = m.injectBits(fc.instrs[src2], lv)
			}
			regs[dst2] = lv
			defs[dst2] = idx2
			if m.rec != nil {
				m.rec.SetResult(idx2, lv)
			}
			pc += 2
			continue
		default:
			m.raiseFatal(fc.instrs[src], "unimplemented opcode")
			return
		}

		// Common result commit: truncation already applied per-op,
		// injection targets this event, trace records the final bits.
		if m.inj != nil && !m.inj.Applied && m.inj.Event == idx {
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

func icmpBits(aux uint32, x, y uint64) uint64 {
	pred := ir.Pred(aux >> 8)
	w := int(aux & 0xff)
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
		sx, sy := ir.SignExtend(x, w), ir.SignExtend(y, w)
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
		m.executed++
		if m.rec != nil {
			ops, defs := m.rec.Begin(g.phis[i])
			ops[0], defs[0] = bits, def
		}
		m.phiVals[i] = bits
		m.phiIdx[i] = idx
		if m.dyn > m.max {
			m.hang = true
			return fr.pc
		}
	}
	if fatalAt >= 0 {
		prev := "%<nil>"
		if fr.prev != nil {
			prev = fr.prev.Ident()
		}
		m.raiseFatal(g.phis[fatalAt], "phi has no incoming edge from %s", prev)
		return fr.pc
	}
	for i := 0; i < n; i++ {
		in := g.phis[i]
		r := m.phiVals[i]
		idx := m.phiIdx[i]
		if m.inj != nil && !m.inj.Applied && m.inj.Event == idx {
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
	if m.inj != nil && !m.inj.Applied && m.inj.Event == fr.callIdx {
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
	align := int64(aux >> 16 & 0xff)
	if m.rec != nil {
		m.rec.SetAccess(idx, addr, m.as.SP(), m.as.Version())
	}
	if !m.alignOK(size, align, addr) {
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
		if d, ok := m.memDef[addr]; ok {
			m.rec.SetMemDef(idx, d)
		}
	}
	return v, true
}

func (m *machine) store(in *ir.Instr, idx int64, val, addr uint64, aux uint32) bool {
	m.stores++
	size := int64(aux & 0xff)
	align := int64(aux >> 8 & 0xff)
	if m.rec != nil {
		m.rec.SetAccess(idx, addr, m.as.SP(), m.as.Version())
	}
	if !m.alignOK(size, align, addr) {
		m.raise(interp.ExcMisaligned, in, addr, "misaligned store")
		return false
	}
	if err := m.as.StoreFast(addr, size, val); err != nil {
		m.raise(interp.ExcSegFault, in, addr, err.Error())
		return false
	}
	if m.rec != nil {
		for i := int64(0); i < size; i++ {
			m.memDef[addr+uint64(i)] = idx
		}
	}
	return true
}

// alignOK mirrors the walker's alignment policy on precomputed element
// size and natural alignment.
func (m *machine) alignOK(size, align int64, addr uint64) bool {
	if size <= 1 {
		return true
	}
	var req int64
	switch m.cfg.Align {
	case interp.AlignNone:
		return true
	case interp.AlignNatural:
		req = align
	default: // AlignFourByte
		req = align
		if req > 4 {
			req = 4
		}
	}
	return addr%uint64(req) == 0
}

// flushObs publishes one run's tallies (see metrics.go).
func (m *machine) flushObs() {
	noteRun(m)
}
