package ir

import (
	"fmt"
	"sync/atomic"
)

// Opcode enumerates the instruction set.
type Opcode int

// Instruction opcodes. The arithmetic, conversion and memory opcodes match
// the subset of LLVM IR that appears on the backward slices of memory
// addresses (paper Table III) plus enough control flow to express the
// Rodinia-style benchmarks. Enums start at one.
const (
	// Integer arithmetic.
	OpAdd Opcode = iota + 1
	OpSub
	OpMul
	OpSDiv
	OpUDiv
	OpSRem
	OpURem
	// Bitwise.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	// Floating point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	// Comparisons.
	OpICmp
	OpFCmp
	// Conversions.
	OpTrunc
	OpZExt
	OpSExt
	OpFPToSI
	OpSIToFP
	OpFPTrunc
	OpFPExt
	OpBitcast
	OpPtrToInt
	OpIntToPtr
	// Memory.
	OpAlloca
	OpLoad
	OpStore
	OpGEP
	// Control flow and SSA plumbing.
	OpPhi
	OpSelect
	OpBr
	OpCondBr
	OpRet
	OpCall
	// Process-level intrinsics standing in for libc on the simulated
	// machine.
	OpMalloc // i8* malloc(i64 size)
	OpFree   // void free(i8*)
	OpOutput // void output(value): appends the value to the program output
	OpAbort  // void abort(): terminates with the Abort exception
	OpDetect // void detect(): raises the Detected outcome (duplication checks)
	// Math intrinsics standing in for libm; unary and binary operations on
	// a floating-point type.
	OpSqrt
	OpFAbs
	OpExp
	OpLog
	OpSin
	OpCos
	OpPow
	OpFMin
	OpFMax
)

var opcodeNames = map[Opcode]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpUDiv: "udiv",
	OpSRem: "srem", OpURem: "urem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpLShr: "lshr",
	OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpTrunc: "trunc", OpZExt: "zext", OpSExt: "sext", OpFPToSI: "fptosi",
	OpSIToFP: "sitofp", OpFPTrunc: "fptrunc", OpFPExt: "fpext",
	OpBitcast: "bitcast", OpPtrToInt: "ptrtoint", OpIntToPtr: "inttoptr",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "getelementptr",
	OpPhi: "phi", OpSelect: "select", OpBr: "br", OpCondBr: "br",
	OpRet: "ret", OpCall: "call",
	OpMalloc: "malloc", OpFree: "free", OpOutput: "output", OpAbort: "abort",
	OpDetect: "detect",
	OpSqrt:   "sqrt", OpFAbs: "fabs", OpExp: "exp", OpLog: "log",
	OpSin: "sin", OpCos: "cos", OpPow: "pow", OpFMin: "fmin", OpFMax: "fmax",
}

// String returns the mnemonic for the opcode.
func (o Opcode) String() string {
	if s, ok := opcodeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Opcode) IsTerminator() bool {
	switch o {
	case OpBr, OpCondBr, OpRet:
		return true
	default:
		return false
	}
}

// IsMemAccess reports whether the opcode reads or writes simulated memory
// through a pointer operand (the accesses the crash model guards).
func (o Opcode) IsMemAccess() bool { return o == OpLoad || o == OpStore }

// IsIntArith reports whether the opcode is two-operand integer arithmetic or
// bitwise logic.
func (o Opcode) IsIntArith() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpSDiv, OpUDiv, OpSRem, OpURem,
		OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr:
		return true
	default:
		return false
	}
}

// IsFloatArith reports whether the opcode is two-operand floating-point
// arithmetic.
func (o Opcode) IsFloatArith() bool {
	switch o {
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		return true
	default:
		return false
	}
}

// IsMathUnary reports whether the opcode is a one-operand math intrinsic.
func (o Opcode) IsMathUnary() bool {
	switch o {
	case OpSqrt, OpFAbs, OpExp, OpLog, OpSin, OpCos:
		return true
	default:
		return false
	}
}

// IsMathBinary reports whether the opcode is a two-operand math intrinsic.
func (o Opcode) IsMathBinary() bool {
	switch o {
	case OpPow, OpFMin, OpFMax:
		return true
	default:
		return false
	}
}

// IsConversion reports whether the opcode is a value conversion.
func (o Opcode) IsConversion() bool {
	switch o {
	case OpTrunc, OpZExt, OpSExt, OpFPToSI, OpSIToFP, OpFPTrunc, OpFPExt,
		OpBitcast, OpPtrToInt, OpIntToPtr:
		return true
	default:
		return false
	}
}

// Pred is an integer or float comparison predicate.
type Pred int

// Comparison predicates. The I* predicates apply to icmp, the F* predicates
// to fcmp (ordered comparisons only; the simulated programs do not produce
// NaN-sensitive control flow).
const (
	IEQ Pred = iota + 1
	INE
	ISLT
	ISLE
	ISGT
	ISGE
	IULT
	IULE
	IUGT
	IUGE
	FOEQ
	FONE
	FOLT
	FOLE
	FOGT
	FOGE
)

var predNames = map[Pred]string{
	IEQ: "eq", INE: "ne", ISLT: "slt", ISLE: "sle", ISGT: "sgt", ISGE: "sge",
	IULT: "ult", IULE: "ule", IUGT: "ugt", IUGE: "uge",
	FOEQ: "oeq", FONE: "one", FOLT: "olt", FOLE: "ole", FOGT: "ogt", FOGE: "oge",
}

// String returns the LLVM-style predicate name.
func (p Pred) String() string {
	if s, ok := predNames[p]; ok {
		return s
	}
	return fmt.Sprintf("pred(%d)", int(p))
}

// Instr is a single IR instruction. Instructions producing a value act as
// that value (virtual register) when used as an operand of later
// instructions.
type Instr struct {
	// Op is the opcode.
	Op Opcode
	// Name is the result register name without the "%" sigil; empty for
	// void-typed instructions.
	Name string
	// Ty is the result type; Void for instructions producing no value.
	Ty *Type
	// Args are the value operands. Conventions:
	//   load:    [ptr]
	//   store:   [val, ptr]
	//   gep:     [base, index]            (address = base + index*Elem.Size())
	//   condbr:  [cond]                   (targets in Blocks)
	//   select:  [cond, ifTrue, ifFalse]
	//   ret:     [val] or []
	//   call:    actual arguments
	//   phi:     incoming values          (blocks in PhiIn)
	Args []Value
	// Blocks are control-flow successors: br has one, condbr has
	// [then, else].
	Blocks []*Block
	// PhiIn holds the incoming block for each phi operand, parallel to Args.
	PhiIn []*Block
	// Pred is the comparison predicate for icmp/fcmp.
	Pred Pred
	// Elem is the pointee/element type for alloca (allocated type), load
	// (loaded type), store (stored type) and gep (element stride type).
	Elem *Type
	// Callee is the target for call instructions.
	Callee *Function
	// Parent is the containing basic block.
	Parent *Block
	// ID is the static instruction identifier, unique within the module
	// once Module.Finish has run.
	ID int
	// LocalID is the instruction's dense index within its function,
	// assigned by Module.Finish; the interpreter uses it for flat
	// per-frame register files.
	LocalID int
}

var _ Value = (*Instr)(nil)

// Type implements Value.
func (in *Instr) Type() *Type {
	if in.Ty == nil {
		return Void
	}
	return in.Ty
}

// Ident implements Value.
func (in *Instr) Ident() string { return "%" + in.Name }

// Func returns the function containing the instruction, or nil if detached.
func (in *Instr) Func() *Function {
	if in.Parent == nil {
		return nil
	}
	return in.Parent.Parent
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator.
type Block struct {
	Name   string
	Instrs []*Instr
	Parent *Function
	// Index is the block's position within its function.
	Index int
}

// Terminator returns the block's final instruction if it is a terminator,
// else nil.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the control-flow successors of the block.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Blocks
}

// Ident returns the block's printable label.
func (b *Block) Ident() string { return "%" + b.Name }

// Function is an IR function.
type Function struct {
	Name   string
	Params []*Param
	RetTy  *Type
	Blocks []*Block
	Parent *Module

	numLocals int
}

// NumLocals returns the function's static instruction count after
// Module.Finish; it sizes the interpreter's per-frame register file.
func (f *Function) NumLocals() int { return f.numLocals }

// Entry returns the function's entry block, or nil for an empty function.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NumInstrs returns the static instruction count of the function.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Module is a translation unit: globals plus functions.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Function

	// instrs is the dense instruction table by static ID, built by
	// Finish.
	instrs []*Instr
	// text memoizes Print for Text; Finish clears it.
	text atomic.Pointer[string]
}

// Text returns Print(m), printing the module once per Finish: callers
// that check a module against a stored digest on every call (a campaign's
// plan ID) pay for the print once. A module changed after Finish must be
// finished again, as before it is executed or analyzed.
func (m *Module) Text() string {
	if t := m.text.Load(); t != nil {
		return *t
	}
	t := Print(m)
	m.text.Store(&t)
	return t
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Finish assigns dense static IDs to every instruction in the module,
// records block indices and builds the instruction table. It must be
// called (typically via Builder.Module or after manual construction)
// before the module is executed or analyzed. The table is never built
// lazily: a finished module is read concurrently by campaign workers.
func (m *Module) Finish() {
	m.text.Store(nil)
	// A fresh table: one handed out before a re-Finish stays as it was.
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	m.instrs = make([]*Instr, 0, n)
	for _, f := range m.Funcs {
		local := 0
		for bi, b := range f.Blocks {
			b.Index = bi
			b.Parent = f
			for _, in := range b.Instrs {
				in.Parent = b
				in.ID = len(m.instrs)
				in.LocalID = local
				m.instrs = append(m.instrs, in)
				local++
			}
		}
		f.numLocals = local
	}
}

// NumInstrs returns the static instruction count of the module after Finish.
func (m *Module) NumInstrs() int { return len(m.instrs) }

// InstrByID returns the instruction with the given static ID, or nil.
func (m *Module) InstrByID(id int) *Instr {
	if id < 0 || id >= len(m.instrs) {
		return nil
	}
	return m.instrs[id]
}

// Instrs returns the instruction table: the module's instructions indexed
// by static ID, as of the last Finish. Callers must not modify it.
func (m *Module) Instrs() []*Instr { return m.instrs }
