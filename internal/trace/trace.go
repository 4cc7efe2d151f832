// Package trace defines the dynamic instruction trace produced by the
// interpreter: one event per executed IR instruction, carrying the operand
// and result bit patterns, the def-use links needed to build the dynamic
// dependence graph, and — for memory accesses — the effective address, the
// VMA-table version and the stack pointer at the time of the access (the
// state the paper's run-time probe captures from /proc, §III-D).
package trace

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/mem"
)

// NoDef marks a memory or output def with no defining event: a load of
// initial memory (globals, zero-fill), a store, or an output of a constant.
// Operand defs mark a slot without a def by a negative entry instead (see
// Trace).
const NoDef = int64(-1)

// Trace is a full dynamic execution record of one program run, stored as
// flat columns that hold no pointers: the garbage collector never scans
// them, and a walk over one property of every event reads only that
// property. Events are numbered from zero in retirement order. Every index
// column is 32-bit: a recording never holds more than math.MaxInt32 events
// or operand slots (see MaxBudget).
//
// Per event i:
//
//   - InstrID[i] is the static instruction that executed (an index into
//     Instrs, the module's instruction table);
//   - Result[i] is the raw result bit pattern of a value-producing
//     instruction, as finally written: injected bits included (zero for
//     the others);
//   - Acc[i] is the event's access number for loads and stores, an index
//     into the access columns, and -1 for every other event. Accesses are
//     numbered densely in event order;
//   - OpBase[i]:OpBase[i+1] are the event's operand slots (for phi, a
//     single slot: the chosen incoming value; for condbr, the condition).
//
// Per operand slot s, OpDefs[s] = d says where the operand's value came
// from. For d >= 0, event d produced it, and its value is Result[d]. For
// d < 0, no event did (a constant immediate or a global's address), and
// its value is Imm[^d]. Imm holds only those slots' values, in slot
// order; Op(s) reads either kind. A slot's value is the raw operand bit
// pattern as read at execution time.
//
// Per access a (the state the crash model replays):
//
//   - Addr[a] is the effective address;
//   - SP[a] is the stack pointer at the access;
//   - MemDef[a] is, for loads, the store event that last wrote the loaded
//     location, or -1 (NoDef) for initial memory (globals, zero-fill);
//     always -1 for stores;
//   - VMAVer[a] is the VMA-table version, a key of Snapshots.
type Trace struct {
	Module *ir.Module

	InstrID []int32
	Result  []uint64
	Acc     []int32
	OpBase  []int32
	OpDefs  []int32
	Imm     []uint64

	Addr   []uint64
	SP     []uint64
	MemDef []int32
	VMAVer []int32

	Outputs []Output
	// Snapshots maps VMA-table versions to the VMA tables captured during
	// the run.
	Snapshots map[int][]mem.VMA
	// Layout is the memory layout the program ran under.
	Layout mem.Layout

	// instrs is the module's instruction table as of recording or
	// loading, so a trace keeps naming the instructions that ran even if
	// the module is later instrumented and re-finished in place.
	instrs []*ir.Instr
}

// NumEvents returns the dynamic instruction count.
func (t *Trace) NumEvents() int64 { return int64(len(t.InstrID)) }

// NumSlots returns the number of operand slots, over all events.
func (t *Trace) NumSlots() int { return len(t.OpDefs) }

// Instrs returns the instruction table that InstrID indexes. Callers must
// not modify it.
func (t *Trace) Instrs() []*ir.Instr { return t.instrs }

// Instr returns the static instruction of event ev.
func (t *Trace) Instr(ev int64) *ir.Instr { return t.instrs[t.InstrID[ev]] }

// Op returns the raw bit pattern of operand slot s: its def's result, or
// its immediate when it has no def.
func (t *Trace) Op(s int) uint64 {
	d := t.OpDefs[s]
	if d >= 0 {
		return t.Result[d]
	}
	return t.Imm[^d]
}

// OpDefsOf returns the OpDefs entries of event ev's operand slots, a view
// into the column: a negative entry marks a slot without a def.
func (t *Trace) OpDefsOf(ev int64) []int32 { return t.OpDefs[t.OpBase[ev]:t.OpBase[ev+1]] }

// IsMemAccess reports whether event ev is a load or store.
func (t *Trace) IsMemAccess(ev int64) bool { return t.Acc[ev] >= 0 }

// MemDefOf returns the store event that produced the value loaded at
// event ev, or NoDef when ev is not a load or read initial memory.
func (t *Trace) MemDefOf(ev int64) int64 {
	if a := t.Acc[ev]; a >= 0 {
		return int64(t.MemDef[a])
	}
	return NoDef
}

// Event records one dynamic instruction execution. It is a by-value copy
// of one event's columns for cold callers.
type Event struct {
	// Instr is the static instruction that executed.
	Instr *ir.Instr
	// Ops are the raw operand bit patterns as read at execution time.
	Ops []uint64
	// OpDefs gives, for each entry of Ops, the index of the event whose
	// result produced it, or NoDef.
	OpDefs []int64
	// Result is the raw result bit pattern.
	Result uint64
	// Addr, MemDef, VMAVer and SP are the access state of a load or
	// store; zero (MemDef NoDef) for other events.
	Addr   uint64
	MemDef int64
	VMAVer int
	SP     uint64
}

// IsMemAccess reports whether the event is a load or store.
func (e *Event) IsMemAccess() bool { return e.Instr.Op.IsMemAccess() }

// Event returns a copy of event ev.
func (t *Trace) Event(ev int64) Event {
	lo, hi := int(t.OpBase[ev]), int(t.OpBase[ev+1])
	e := Event{
		Instr:  t.Instr(ev),
		Ops:    make([]uint64, hi-lo),
		OpDefs: make([]int64, hi-lo),
		Result: t.Result[ev],
		MemDef: NoDef,
	}
	for k := range e.Ops {
		e.Ops[k], e.OpDefs[k] = t.Op(lo+k), max(int64(t.OpDefs[lo+k]), NoDef)
	}
	if a := t.Acc[ev]; a >= 0 {
		e.Addr, e.MemDef, e.VMAVer, e.SP = t.Addr[a], int64(t.MemDef[a]), int(t.VMAVer[a]), t.SP[a]
	}
	return e
}

// Output records one value emitted through the output intrinsic.
type Output struct {
	// EventIdx is the dynamic index of the output event.
	EventIdx int64
	// Def is the event that produced the emitted value, or NoDef.
	Def int64
	// Bits is the raw emitted bit pattern.
	Bits uint64
	// Width is the emitted value's bit width.
	Width int
}

// Use identifies one dynamic operand read: operand Op of event Event. Uses
// are the "register at instruction i" granularity over which PVF and ePVF
// count bits (paper Eq. 1–3), and the granularity at which the fault
// injector corrupts values.
type Use struct {
	Event int64
	Op    int
}

// String renders the use for diagnostics.
func (u Use) String() string { return fmt.Sprintf("ev%d.op%d", u.Event, u.Op) }

// OperandWidth returns the bit width of operand op of instruction in, under
// the phi convention (a phi event stores only the chosen incoming value).
func OperandWidth(in *ir.Instr, op int) int {
	if in.Op == ir.OpPhi {
		return in.Type().BitWidth()
	}
	if op < 0 || op >= len(in.Args) {
		return 0
	}
	return in.Args[op].Type().BitWidth()
}

// IsDef reports whether the instruction defines a register (produces a
// value). Register definitions are the "registers" resource over which PVF
// and ePVF count bits — each register counted once, as in the paper's
// running example — and the targets of the LLFI-style fault injector.
func IsDef(in *ir.Instr) bool { return !in.Type().IsVoid() }

// DefWidth returns the bit width of the register defined by in (zero for
// void instructions).
func DefWidth(in *ir.Instr) int { return in.Type().BitWidth() }

// InjectableOperand reports whether operand op of instruction in is a value
// carried in a virtual register rather than an immediate constant. The
// propagation model records crash ranges only for register operands — a
// fault cannot flip an instruction-encoded immediate (§II-E).
func InjectableOperand(in *ir.Instr, op int) bool {
	if in.Op == ir.OpPhi {
		return op == 0 && len(in.Args) > 0
	}
	if op < 0 || op >= len(in.Args) {
		return false
	}
	switch in.Args[op].(type) {
	case *ir.Instr, *ir.Param:
		return true
	default:
		return false
	}
}

// NumOperands returns the number of recorded operand slots for instruction
// in (phi events record exactly one).
func NumOperands(in *ir.Instr) int {
	if in.Op == ir.OpPhi {
		return 1
	}
	return len(in.Args)
}
