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

// NoDef marks an operand with no defining event (a constant immediate or a
// global's address).
const NoDef = int64(-1)

// Event records one dynamic instruction execution.
type Event struct {
	// Instr is the static instruction that executed.
	Instr *ir.Instr
	// Ops are the raw operand bit patterns as read at execution time. For
	// phi, a single entry: the chosen incoming value. For condbr, the
	// condition.
	Ops []uint64
	// OpDefs gives, for each entry of Ops, the index of the event whose
	// result produced it, or NoDef.
	OpDefs []int64
	// Result is the raw result bit pattern for value-producing
	// instructions.
	Result uint64
	// Addr is the effective address for load/store events.
	Addr uint64
	// MemDef is, for load events, the index of the store event that last
	// wrote the loaded location, or NoDef for initial memory (globals,
	// zero-fill).
	MemDef int64
	// VMAVer is the VMA-table version at a load/store, for replaying
	// segment boundaries in the crash model.
	VMAVer int
	// SP is the stack pointer at a load/store.
	SP uint64
}

// IsMemAccess reports whether the event is a load or store.
func (e *Event) IsMemAccess() bool { return e.Instr.Op.IsMemAccess() }

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

// Trace is a full dynamic execution record of one program run.
type Trace struct {
	Module  *ir.Module
	Events  []Event
	Outputs []Output
	// Snapshots maps VMA-table versions to the VMA tables captured during
	// the run.
	Snapshots map[int][]mem.VMA
	// Layout is the memory layout the program ran under.
	Layout mem.Layout
}

// NumEvents returns the dynamic instruction count.
func (t *Trace) NumEvents() int64 { return int64(len(t.Events)) }

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

// UseWidth returns the bit width of the given operand use.
func (t *Trace) UseWidth(u Use) int {
	ev := &t.Events[u.Event]
	return OperandWidth(ev.Instr, u.Op)
}

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

// slabChunk is the number of operand slots one Slab chunk holds: large
// enough that a recording allocates a few times per thousand events, small
// enough that a short run wastes little.
const slabChunk = 4096

// Slab hands out the Ops and OpDefs slices of recorded events from shared
// fixed-size chunks, so recording allocates twice per chunk rather than
// twice per event. Each slice it returns is capped at its own length: an
// append by a consumer reallocates instead of overwriting the next
// event's operands. Chunks are never reused, so slices handed out stay
// valid for the life of the trace. The zero Slab is ready to use; a Slab
// is not safe for concurrent use.
type Slab struct {
	ops  []uint64
	defs []int64
}

// Take returns zeroed Ops and OpDefs slices of length n for one event.
func (s *Slab) Take(n int) ([]uint64, []int64) {
	if s.ops == nil || cap(s.ops)-len(s.ops) < n {
		c := max(slabChunk, n)
		s.ops = make([]uint64, 0, c)
		s.defs = make([]int64, 0, c)
	}
	i := len(s.ops)
	s.ops = s.ops[:i+n]
	s.defs = s.defs[:i+n]
	return s.ops[i : i+n : i+n], s.defs[i : i+n : i+n]
}
