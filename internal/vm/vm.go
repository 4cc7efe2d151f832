// Package vm compiles internal/ir modules to a compact register-based
// bytecode and executes it with a flat dispatch loop. It is a drop-in
// alternative to the frame-stack walker in internal/interp for the fault
// injection hot path: per-dynamic-instruction event records are
// bit-identical to the walker's (same trace, DDG links, crash class,
// outputs), and injections hit the same program points. The VM also
// executes stepwise (Exec) and captures and resumes its own snapshots,
// which is what internal/snapshot chains are built on.
//
// # Bytecode format
//
// Every static instruction compiles to exactly two 64-bit words:
//
//	w0 = op(8) << 56 | dst(14) << 42 | a(14) << 28 | b(14) << 14 | c(14)
//	w1 = src(32) << 32 | aux(32)
//
// dst/a/b/c are register-file slots, src is the instruction's LocalID
// (used for trace recording and slow-path helpers), and aux is an
// op-specific immediate or side-table index. A frame's register file is a
// flat []uint64 laid out as
//
//	[0, nLocals)            SSA results, indexed by ir.Instr.LocalID
//	[nLocals, +nParams)     parameters
//	[constBase, +nConsts)   constant pool (deduplicated raw bit patterns)
//	[globalBase, +nGlobals) global addresses (resolved per machine)
//
// with a parallel []int64 of defining dynamic-event indices, so operand
// reads are uniform one-index loads for every value kind. Jump targets
// are resolved to word offsets at compile time. Every instruction
// retires in a dispatch of its own, except a block-leading phi group,
// whose parallel assignment retires all its members in one.
//
// Compile accepts every module that ir.Verify accepts, with one limit: a
// function whose register file needs more than 2^14 slots fails with
// ErrUnsupported, which callers report as an analysis error. There is no
// fallback to the walker; the walker is the VM's test oracle.
package vm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ir"
)

// vop is a bytecode operation. Integer widths, predicates and element
// sizes move into aux, so one vop serves every width. Where a width picks
// the float format, or a conversion's kind picks its arithmetic, each
// choice has a vop of its own, so no conversion, float arithmetic or
// float compare reads its instruction at run time.
type vop uint8

const (
	vopInvalid vop = iota
	// Integer arithmetic and bitwise logic; aux = result width.
	vopAdd
	vopSub
	vopMul
	vopAnd
	vopOr
	vopXor
	vopShl
	vopLShr
	vopAShr
	// Division; aux = width; raises ExcArith like the walker.
	vopSDiv
	vopUDiv
	vopSRem
	vopURem
	// Float arithmetic, one vop per operation and width, each width's in
	// the order add, sub, mul, div (floatArithVop counts on it).
	vopFAdd32
	vopFSub32
	vopFMul32
	vopFDiv32
	vopFAdd64
	vopFSub64
	vopFMul64
	vopFDiv64
	// libm intrinsics; evaluated via the shared interp helpers on
	// fc.instrs[src] so rounding is identical.
	vopMathUnary
	vopMathBinary
	// Comparisons; vopICmp aux = pred<<8 | (64 - operand width),
	// vopFCmp32 and vopFCmp64 aux = pred.
	vopICmp
	vopFCmp32
	vopFCmp64
	// Conversions, one vop per kind and float width. vopConvMask (trunc,
	// zext, bitcast, ptrtoint, inttoptr) keeps the operand's bits, masked
	// to aux = the result's mask width (0 = no mask); vopSExt c = 64 -
	// operand width and aux = result mask width; vopFPToSI32/64 aux =
	// result width; vopSIToFP32/64 aux = 64 - operand width.
	vopConvMask
	vopSExt
	vopFPToSI32
	vopFPToSI64
	vopSIToFP32
	vopSIToFP64
	vopFPTrunc
	vopFPExt
	// Memory; vopAlloca aux = frame offset, vopLoad aux =
	// align<<16|maskWidth<<8|size, vopStore aux = align<<8|size, with
	// the access's natural alignment; vopGEP aux = stride and c = 64 -
	// index width.
	vopAlloca
	vopLoad
	vopStore
	vopGEP
	// Data/control flow.
	vopSelect // aux = result mask width (0 = no mask)
	vopBr     // aux = brTab index
	vopCondBr // a = cond slot, aux = condTab index
	vopRet    // dst = 1 when a return value is present in slot a
	vopCall   // aux = callTab index
	vopPhiGroup
	// Intrinsics.
	vopMalloc
	vopFree
	vopOutput // a = value slot, aux = value width
	vopAbort
	vopDetect
	// vopTrap raises the walker's runtime fatal errors (fell-through
	// block, misplaced phi) at the exact point the walker would; aux =
	// trapTab index. It retires no event.
	vopTrap
	// Memory with an immediate too wide for aux, read from the constant
	// pool instead: vopAllocaWide a = offset slot; vopGEPWide c = stride
	// slot and aux = 64 - index width.
	vopAllocaWide
	vopGEPWide
)

const (
	slotBits = 14
	maxSlots = 1 << slotBits
)

func encWord0(op vop, dst, a, b, c int) uint64 {
	return uint64(op)<<56 | uint64(dst)<<42 | uint64(a)<<28 | uint64(b)<<14 | uint64(c)
}

func encWord1(src int, aux uint32) uint64 {
	return uint64(uint32(src))<<32 | uint64(aux)
}

// brTarget is a resolved unconditional branch.
type brTarget struct {
	pc   int32
	from *ir.Block
}

// condTarget is a resolved conditional branch.
type condTarget struct {
	tpc, fpc int32
	from     *ir.Block
}

// phiEdge gives, for one predecessor, the operand slot feeding each phi
// of the group. fatalAt >= 0 marks the first phi with no incoming value
// for this edge: the walker retires the earlier phis and then raises a
// fatal error, and the VM does the same.
type phiEdge struct {
	src     []uint16
	fatalAt int32
}

// phiGroup is a block's leading run of phis, retired atomically.
type phiGroup struct {
	phis   []*ir.Instr
	edgeOf map[*ir.Block]int32
	edges  []phiEdge
	endPC  int32
}

// callEntry is a resolved call site.
type callEntry struct {
	in     *ir.Instr
	callee *ir.Function
	fnIdx  int32
	args   []uint16
}

// Trap kinds: which walker fatal error a vopTrap raises.
const (
	trapFellThrough = 1
	trapMidBlockPhi = 2
)

// trapEntry is a deferred walker fatal error.
type trapEntry struct {
	in   *ir.Instr
	kind int
}

// instrMeta carries per-instruction data used off the hot path.
type instrMeta struct {
	// argSlots are the operand slots in ir.Instr.Args order, for trace
	// recording.
	argSlots []uint16
}

// fnCode is one compiled function.
type fnCode struct {
	fn     *ir.Function
	code   []uint64
	instrs []*ir.Instr // by LocalID
	meta   []instrMeta // by LocalID

	consts  []uint64
	globals []*ir.Global

	nLocals, nParams int
	constBase        int
	globalBase       int
	nSlots           int
	frameSize        uint64
	maxPhi           int
	entryInstr       *ir.Instr // first instruction, for stack-overflow raises
	blockPC          []int32   // by block index: pc of first instruction
	brTab            []brTarget
	condTab          []condTarget
	phiTab           []phiGroup
	callTab          []callEntry
	trapTab          []trapEntry

	// live is built on first use by Program.ensureLiveness (live.go).
	live liveTab
}

// ErrUnsupported marks a module the VM cannot compile. For a verified
// module that is only a function needing more than 2^14 register slots
// (the largest built-in kernel needs 651); the other causes are malformed
// modules ir.Verify rejects.
var ErrUnsupported = errors.New("vm: unsupported")

// Options is empty: compilation takes no settings. It stays because the
// benchmark's analysis replica (perfbench/analyze.go) still passes it.
type Options struct{}

// Program is a compiled module, immutable apart from its pool of
// machines, and safe for concurrent runs.
type Program struct {
	mod   *ir.Module
	fns   []*fnCode
	fnIdx map[*ir.Function]int32

	liveOnce sync.Once
	// machines recycles machines between runs; maxPhi sizes their phi
	// scratch.
	machines sync.Pool
	maxPhi   int

	// CompileNanos is the wall time spent compiling; CodeBytes the
	// bytecode footprint in bytes.
	CompileNanos int64
	CodeBytes    int64
}

// Module returns the module the program was compiled from.
func (p *Program) Module() *ir.Module { return p.mod }

// Compile translates every function of m to bytecode. A function over
// the register-slot limit fails the whole compilation with an error
// wrapping ErrUnsupported, as do the malformed modules ir.Verify rejects
// that the compiler notices; the module is untouched either way.
func Compile(m *ir.Module, opts Options) (*Program, error) {
	start := time.Now()
	p := &Program{mod: m, fns: make([]*fnCode, len(m.Funcs)), fnIdx: make(map[*ir.Function]int32, len(m.Funcs))}
	for i, fn := range m.Funcs {
		p.fnIdx[fn] = int32(i)
	}
	for i, fn := range m.Funcs {
		fc, err := newFnCompiler(fn).compile()
		if err != nil {
			return nil, fmt.Errorf("vm: compiling %s: %w", fn.Name, err)
		}
		p.fns[i] = fc
		p.CodeBytes += int64(len(fc.code)) * 8
		p.maxPhi = max(p.maxPhi, fc.maxPhi)
	}
	// Link: resolve callee functions to program indices.
	for _, fc := range p.fns {
		for ci := range fc.callTab {
			e := &fc.callTab[ci]
			idx, ok := p.fnIdx[e.callee]
			if !ok {
				return nil, fmt.Errorf("%w: call to function outside module", ErrUnsupported)
			}
			e.fnIdx = idx
		}
	}
	p.CompileNanos = time.Since(start).Nanoseconds()
	noteCompile(p)
	return p, nil
}
