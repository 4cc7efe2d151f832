package vm

import (
	"fmt"
	"math"

	"repro/internal/interp"
	"repro/internal/ir"
)

// fnCompiler translates one function to bytecode: an interning pre-pass
// fixes the register-file layout (locals, params, constant pool, global
// slots), then a single emission pass over the blocks produces the code
// words and side tables.
type fnCompiler struct {
	fn *ir.Function
	fc *fnCode

	constSlot  map[uint64]int
	globalSlot map[*ir.Global]int
	offsets    map[*ir.Instr]uint64
}

func newFnCompiler(fn *ir.Function) *fnCompiler {
	return &fnCompiler{
		fn:         fn,
		constSlot:  make(map[uint64]int),
		globalSlot: make(map[*ir.Global]int),
	}
}

func (c *fnCompiler) compile() (*fnCode, error) {
	fn := c.fn
	if len(fn.Blocks) == 0 || len(fn.Entry().Instrs) == 0 {
		return nil, fmt.Errorf("%w: function %s has no body", ErrUnsupported, fn.Name)
	}
	nLocals := fn.NumLocals()
	nParams := len(fn.Params)
	size, offsets := interp.ComputeFrameLayout(fn)
	c.offsets = offsets
	fc := &fnCode{
		fn:         fn,
		instrs:     make([]*ir.Instr, nLocals),
		meta:       make([]instrMeta, nLocals),
		nLocals:    nLocals,
		nParams:    nParams,
		constBase:  nLocals + nParams,
		frameSize:  size,
		entryInstr: fn.Entry().Instrs[0],
		blockPC:    make([]int32, len(fn.Blocks)),
	}
	c.fc = fc

	// Interning pre-pass: close the constant pool and global list so
	// every slot index is final before emission.
	for _, blk := range fn.Blocks {
		for _, in := range blk.Instrs {
			if in.LocalID >= nLocals {
				return nil, fmt.Errorf("%w: module not finished (LocalID out of range)", ErrUnsupported)
			}
			fc.instrs[in.LocalID] = in
			for _, a := range in.Args {
				if err := c.intern(a); err != nil {
					return nil, err
				}
			}
			// An immediate too wide for aux lives in the constant pool.
			switch {
			case in.Op == ir.OpAlloca && !auxFits(int64(offsets[in])):
				c.internBits(offsets[in])
			case in.Op == ir.OpGEP && !auxFits(in.Elem.Size()):
				c.internBits(uint64(in.Elem.Size()))
			}
		}
	}
	fc.globalBase = fc.constBase + len(fc.consts)
	fc.nSlots = fc.globalBase + len(fc.globals)
	if fc.nSlots > maxSlots {
		return nil, fmt.Errorf("%w: register file needs %d slots (max %d)", ErrUnsupported, fc.nSlots, maxSlots)
	}

	for bi, blk := range fn.Blocks {
		if len(blk.Instrs) == 0 {
			return nil, fmt.Errorf("%w: empty block %s", ErrUnsupported, blk.Ident())
		}
		fc.blockPC[bi] = c.pc()
		i := 0
		if blk.Instrs[0].Op == ir.OpPhi {
			n, err := c.emitPhiGroup(blk)
			if err != nil {
				return nil, err
			}
			i = n
		}
		for _, in := range blk.Instrs[i:] {
			if in.Op == ir.OpPhi {
				c.emitTrap(in, trapMidBlockPhi)
				continue
			}
			if err := c.emit(in); err != nil {
				return nil, err
			}
		}
		if blk.Terminator() == nil {
			c.emitTrap(blk.Instrs[len(blk.Instrs)-1], trapFellThrough)
		}
	}
	// Resolve branch targets now that every block's pc is known.
	for i := range fc.brTab {
		t := fc.brTab[i].from.Terminator()
		fc.brTab[i].pc = fc.blockPC[t.Blocks[0].Index]
	}
	for i := range fc.condTab {
		t := fc.condTab[i].from.Terminator()
		fc.condTab[i].tpc = fc.blockPC[t.Blocks[0].Index]
		fc.condTab[i].fpc = fc.blockPC[t.Blocks[1].Index]
	}
	return fc, nil
}

func (c *fnCompiler) pc() int32 { return int32(len(c.fc.code)) }

// intern reserves pool entries for constant and global operands.
func (c *fnCompiler) intern(v ir.Value) error {
	switch x := v.(type) {
	case *ir.Instr, *ir.Param:
		return nil
	case *ir.Const:
		c.internBits(x.Bits)
		return nil
	case *ir.Global:
		if _, ok := c.globalSlot[x]; !ok {
			c.globalSlot[x] = len(c.fc.globals)
			c.fc.globals = append(c.fc.globals, x)
		}
		return nil
	default:
		return fmt.Errorf("%w: operand kind %T", ErrUnsupported, v)
	}
}

// internBits reserves a constant-pool entry for bits.
func (c *fnCompiler) internBits(bits uint64) {
	if _, ok := c.constSlot[bits]; !ok {
		c.constSlot[bits] = len(c.fc.consts)
		c.fc.consts = append(c.fc.consts, bits)
	}
}

// slotOf returns the register-file slot holding v (pools closed).
func (c *fnCompiler) slotOf(v ir.Value) (int, error) {
	switch x := v.(type) {
	case *ir.Instr:
		if x.Parent == nil || x.Parent.Parent != c.fn {
			return 0, fmt.Errorf("%w: operand from another function", ErrUnsupported)
		}
		return x.LocalID, nil
	case *ir.Param:
		if x.Index < 0 || x.Index >= c.fc.nParams {
			return 0, fmt.Errorf("%w: parameter index out of range", ErrUnsupported)
		}
		return c.fc.nLocals + x.Index, nil
	case *ir.Const:
		return c.fc.constBase + c.constSlot[x.Bits], nil
	case *ir.Global:
		return c.fc.globalBase + c.globalSlot[x], nil
	default:
		return 0, fmt.Errorf("%w: operand kind %T", ErrUnsupported, v)
	}
}

// emitTrap emits a vopTrap for a walker runtime fatal.
func (c *fnCompiler) emitTrap(in *ir.Instr, kind int) {
	fc := c.fc
	aux := uint32(len(fc.trapTab))
	fc.trapTab = append(fc.trapTab, trapEntry{in: in, kind: kind})
	fc.code = append(fc.code, encWord0(vopTrap, 0, 0, 0, 0), encWord1(in.LocalID, aux))
}

func auxFits(v int64) bool { return v >= 0 && v <= math.MaxUint32 }

// emit translates one non-phi instruction.
func (c *fnCompiler) emit(in *ir.Instr) error {
	fc := c.fc
	slots, err := c.argSlots(in)
	if err != nil {
		return err
	}
	fc.meta[in.LocalID] = instrMeta{argSlots: slots}

	var op vop
	var dst, a, b, cc int
	var aux uint32
	if !in.Type().IsVoid() {
		dst = in.LocalID
	}
	pick := func(i int) int {
		if i < len(slots) {
			return int(slots[i])
		}
		return 0
	}
	a, b, cc = pick(0), pick(1), pick(2)

	switch {
	case in.Op.IsIntArith():
		if len(in.Args) != 2 {
			return c.badArity(in)
		}
		op = intArithVop(in.Op)
		if !in.Ty.IsInt() || in.Ty.Bits <= 0 || in.Ty.Bits > 64 {
			return fmt.Errorf("%w: integer arithmetic with non-integer type", ErrUnsupported)
		}
		aux = uint32(in.Ty.Bits)
	case in.Op.IsFloatArith():
		if len(in.Args) != 2 {
			return c.badArity(in)
		}
		op = floatArithVop(in.Op, in.Ty.Bits)
	case in.Op.IsMathUnary():
		if len(in.Args) != 1 {
			return c.badArity(in)
		}
		op = vopMathUnary
	case in.Op.IsMathBinary():
		if len(in.Args) != 2 {
			return c.badArity(in)
		}
		op = vopMathBinary
	case in.Op == ir.OpICmp:
		if len(in.Args) != 2 {
			return c.badArity(in)
		}
		op = vopICmp
		w := in.Args[0].Type().BitWidth()
		if w <= 0 || w > 64 {
			return fmt.Errorf("%w: icmp operand width %d", ErrUnsupported, w)
		}
		aux = uint32(in.Pred)<<8 | uint32(64-w)
	case in.Op == ir.OpFCmp:
		if len(in.Args) != 2 {
			return c.badArity(in)
		}
		op = vopFCmp64
		if in.Args[0].Type().Bits == 32 {
			op = vopFCmp32
		}
		aux = uint32(in.Pred)
	case in.Op.IsConversion():
		if len(in.Args) != 1 {
			return c.badArity(in)
		}
		op, cc, aux = convertVop(in)
	case in.Op == ir.OpAlloca:
		op = vopAlloca
		off := c.offsets[in]
		if !auxFits(int64(off)) {
			// Only a frame too large for the stack has such an offset,
			// unless the frame size wrapped around; either way the walker's
			// base+offset is what runs.
			op, a = vopAllocaWide, c.fc.constBase+c.constSlot[off]
			break
		}
		aux = uint32(off)
	case in.Op == ir.OpLoad:
		if len(in.Args) != 1 {
			return c.badArity(in)
		}
		op = vopLoad
		sz, al, err := accessShape(in)
		if err != nil {
			return err
		}
		aux = al<<16 | maskWidth(in.Ty)<<8 | sz
	case in.Op == ir.OpStore:
		if len(in.Args) != 2 {
			return c.badArity(in)
		}
		op = vopStore
		sz, al, err := accessShape(in)
		if err != nil {
			return err
		}
		aux = al<<8 | sz
	case in.Op == ir.OpGEP:
		if len(in.Args) != 2 {
			return c.badArity(in)
		}
		op = vopGEP
		stride := in.Elem.Size()
		w := in.Args[1].Type().BitWidth()
		if w <= 0 || w > 64 {
			return fmt.Errorf("%w: gep index width %d", ErrUnsupported, w)
		}
		if !auxFits(stride) {
			op, cc, aux = vopGEPWide, c.fc.constBase+c.constSlot[uint64(stride)], uint32(64-w)
			break
		}
		aux = uint32(stride)
		cc = 64 - w
	case in.Op == ir.OpSelect:
		if len(in.Args) != 3 {
			return c.badArity(in)
		}
		op = vopSelect
		aux = maskWidth(in.Ty)
	case in.Op == ir.OpBr:
		if len(in.Blocks) != 1 {
			return c.badArity(in)
		}
		op = vopBr
		aux = uint32(len(fc.brTab))
		fc.brTab = append(fc.brTab, brTarget{from: in.Parent})
	case in.Op == ir.OpCondBr:
		if len(in.Args) != 1 || len(in.Blocks) != 2 {
			return c.badArity(in)
		}
		op = vopCondBr
		aux = uint32(len(fc.condTab))
		fc.condTab = append(fc.condTab, condTarget{from: in.Parent})
	case in.Op == ir.OpRet:
		if len(in.Args) > 1 {
			return c.badArity(in)
		}
		op = vopRet
		if len(in.Args) == 1 {
			dst = 1
		}
	case in.Op == ir.OpCall:
		if in.Callee == nil || len(in.Args) != len(in.Callee.Params) {
			return fmt.Errorf("%w: call arity mismatch", ErrUnsupported)
		}
		op = vopCall
		aux = uint32(len(fc.callTab))
		fc.callTab = append(fc.callTab, callEntry{in: in, callee: in.Callee, args: slots})
	case in.Op == ir.OpMalloc:
		if len(in.Args) != 1 {
			return c.badArity(in)
		}
		op = vopMalloc
	case in.Op == ir.OpFree:
		if len(in.Args) != 1 {
			return c.badArity(in)
		}
		op = vopFree
	case in.Op == ir.OpOutput:
		if len(in.Args) != 1 {
			return c.badArity(in)
		}
		op = vopOutput
		aux = uint32(in.Args[0].Type().BitWidth())
	case in.Op == ir.OpAbort:
		op = vopAbort
	case in.Op == ir.OpDetect:
		op = vopDetect
	default:
		// ir.Verify rejects unknown opcodes.
		return fmt.Errorf("%w: opcode %s", ErrUnsupported, in.Op)
	}
	fc.code = append(fc.code, encWord0(op, dst, a, b, cc), encWord1(in.LocalID, aux))
	return nil
}

func intArithVop(op ir.Opcode) vop {
	switch op {
	case ir.OpAdd:
		return vopAdd
	case ir.OpSub:
		return vopSub
	case ir.OpMul:
		return vopMul
	case ir.OpAnd:
		return vopAnd
	case ir.OpOr:
		return vopOr
	case ir.OpXor:
		return vopXor
	case ir.OpShl:
		return vopShl
	case ir.OpLShr:
		return vopLShr
	case ir.OpAShr:
		return vopAShr
	case ir.OpSDiv:
		return vopSDiv
	case ir.OpUDiv:
		return vopUDiv
	case ir.OpSRem:
		return vopSRem
	case ir.OpURem:
		return vopURem
	}
	return vopInvalid
}

// floatArithVop returns the vop for float arithmetic op on values of
// bits bits; like the walker, anything but 32 bits is a double.
func floatArithVop(op ir.Opcode, bits int) vop {
	base := vopFAdd64
	if bits == 32 {
		base = vopFAdd32
	}
	switch op {
	case ir.OpFSub:
		return base + 1
	case ir.OpFMul:
		return base + 2
	case ir.OpFDiv:
		return base + 3
	}
	return base
}

// convertVop fixes a conversion's vop and its widths at compile time,
// where the walker reads them from the instruction per event: the vop
// picks the kind and the float format, c and aux carry the integer widths
// (as sext shifts where the dispatch loop sign-extends).
func convertVop(in *ir.Instr) (op vop, c int, aux uint32) {
	from, to := in.Args[0].Type(), in.Ty
	switch in.Op {
	case ir.OpSExt:
		return vopSExt, 64 - from.Bits, maskWidth(to)
	case ir.OpFPToSI:
		if from.Bits == 32 {
			return vopFPToSI32, 0, uint32(to.Bits)
		}
		return vopFPToSI64, 0, uint32(to.Bits)
	case ir.OpSIToFP:
		if to.Bits == 32 {
			return vopSIToFP32, 0, uint32(64 - from.Bits)
		}
		return vopSIToFP64, 0, uint32(64 - from.Bits)
	case ir.OpFPTrunc:
		return vopFPTrunc, 0, 0
	case ir.OpFPExt:
		return vopFPExt, 0, 0
	default:
		// trunc, zext, bitcast, ptrtoint and inttoptr keep the bits; the
		// result mask does a trunc's work.
		return vopConvMask, 0, maskWidth(to)
	}
}

// accessShape returns a load's or store's size and natural alignment in
// bytes. A type's alignment never exceeds its size, so a one-byte access,
// which the walker never traps, has alignment 1, which no policy traps.
func accessShape(in *ir.Instr) (size, align uint32, err error) {
	sz, al := in.Elem.Size(), in.Elem.Align()
	if sz <= 0 || sz > 8 || al <= 0 || al > sz {
		return 0, 0, fmt.Errorf("%w: %s size %d align %d", ErrUnsupported, in.Op, sz, al)
	}
	return uint32(sz), uint32(al), nil
}

func (c *fnCompiler) badArity(in *ir.Instr) error {
	return fmt.Errorf("%w: %s with %d operands", ErrUnsupported, in.Op, len(in.Args))
}

// maskWidth returns the result-truncation width the walker's setResult
// applies (0 when the result is not an integer or needs no mask).
func maskWidth(ty *ir.Type) uint32 {
	if ty.IsInt() && ty.Bits > 0 && ty.Bits < 64 {
		return uint32(ty.Bits)
	}
	return 0
}

// argSlots resolves every operand of in to a slot.
func (c *fnCompiler) argSlots(in *ir.Instr) ([]uint16, error) {
	slots := make([]uint16, len(in.Args))
	for i, a := range in.Args {
		s, err := c.slotOf(a)
		if err != nil {
			return nil, err
		}
		slots[i] = uint16(s)
	}
	return slots, nil
}

// emitPhiGroup compiles the leading run of phis in blk as one atomic
// group, returning the run length. The group's word pair sits at the
// first phi's slot; the remaining phis' slots hold traps that execution
// jumps over (they exist only to keep the two-words-per-instruction pc
// mapping dense).
func (c *fnCompiler) emitPhiGroup(blk *ir.Block) (int, error) {
	fc := c.fc
	n := 0
	for _, in := range blk.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		n++
	}
	phis := blk.Instrs[:n]
	g := phiGroup{
		phis:   phis,
		edgeOf: make(map[*ir.Block]int32),
	}
	// Predecessors in function block order, deduplicated, are the edges
	// execution can arrive by.
	for _, p := range c.fn.Blocks {
		t := p.Terminator()
		if t == nil {
			continue
		}
		isPred := false
		for _, s := range t.Blocks {
			if s == blk {
				isPred = true
				break
			}
		}
		if !isPred {
			continue
		}
		if _, ok := g.edgeOf[p]; ok {
			continue
		}
		// The walker scans each phi's incoming list in order and takes
		// the first match; a phi with no entry for this edge is a fatal
		// error raised only after the earlier phis retired.
		e := phiEdge{fatalAt: -1}
		for pi, in := range phis {
			found := false
			for ei, from := range in.PhiIn {
				if from == p {
					if ei >= len(in.Args) {
						return 0, fmt.Errorf("%w: phi incoming list longer than operands", ErrUnsupported)
					}
					s, err := c.slotOf(in.Args[ei])
					if err != nil {
						return 0, err
					}
					e.src = append(e.src, uint16(s))
					found = true
					break
				}
			}
			if !found {
				e.fatalAt = int32(pi)
				break
			}
		}
		g.edgeOf[p] = int32(len(g.edges))
		g.edges = append(g.edges, e)
	}
	if n > fc.maxPhi {
		fc.maxPhi = n
	}
	aux := uint32(len(fc.phiTab))
	fc.code = append(fc.code, encWord0(vopPhiGroup, 0, 0, 0, 0), encWord1(phis[0].LocalID, aux))
	for _, in := range phis[1:] {
		c.emitTrap(in, trapMidBlockPhi)
	}
	g.endPC = c.pc()
	fc.phiTab = append(fc.phiTab, g)
	return n, nil
}
