package trace

import (
	"repro/internal/ir"
	"repro/internal/mem"
)

// Chunk sizes of a recording, in elements. A chunk of events holds 24 B
// per event and a chunk of accesses 28 B per access, so each is a few
// hundred KiB.
const (
	chunkBits  = 14
	chunkLen   = 1 << chunkBits
	chunkMask  = chunkLen - 1
	opChunkLen = 2 * chunkLen
)

// eventChunk holds the per-event columns of chunkLen consecutive events;
// end is OpBase shifted by one.
type eventChunk struct {
	id  [chunkLen]int32
	acc [chunkLen]int32
	res [chunkLen]uint64
	end [chunkLen]int
}

// accessChunk holds the access columns of chunkLen consecutive accesses.
type accessChunk struct {
	addr   [chunkLen]uint64
	sp     [chunkLen]uint64
	memDef [chunkLen]int64
	ver    [chunkLen]int32
}

// Recorder builds the trace of one run. Both execution engines record
// through it: Begin for every retired event, then SetResult, SetAccess and
// SetMemDef as the event executes, and Finish at the end of the run.
// Events go to fixed-size chunks, so a growing recording never copies what
// it holds; Finish copies each column once into its flat, exact-size
// form. A Recorder is not safe for concurrent use.
type Recorder struct {
	mod    *ir.Module
	instrs []*ir.Instr

	events []*eventChunk
	n      int // events recorded
	accs   []*accessChunk
	na     int // accesses recorded
	// ops and defs are the operand chunk being filled; full ones move to
	// opChunks and defChunks. An event's operands never straddle chunks.
	ops       []uint64
	defs      []int64
	opChunks  [][]uint64
	defChunks [][]int64
	nops      int
}

// NewRecorder returns a recorder for a run of m.
func NewRecorder(m *ir.Module) *Recorder {
	return &Recorder{mod: m, instrs: m.Instrs()}
}

// Begin records a new event of instruction in and returns its operand
// slots, NumOperands(in) of each, for the caller to fill before the next
// Begin. The event's result is zero and, for a load or store, its access
// state is zero with no memory def, until set.
func (r *Recorder) Begin(in *ir.Instr) (ops []uint64, defs []int64) {
	i := r.n & chunkMask
	if i == 0 {
		r.events = append(r.events, new(eventChunk))
	}
	c := r.events[len(r.events)-1]
	c.id[i] = int32(in.ID)
	c.acc[i] = -1
	if in.Op.IsMemAccess() {
		j := r.na & chunkMask
		if j == 0 {
			r.accs = append(r.accs, new(accessChunk))
		}
		r.accs[len(r.accs)-1].memDef[j] = NoDef
		c.acc[i] = int32(r.na)
		r.na++
	}
	n := NumOperands(in)
	b := len(r.ops)
	if b+n > cap(r.ops) {
		if b > 0 {
			r.opChunks, r.defChunks = append(r.opChunks, r.ops), append(r.defChunks, r.defs)
		}
		size := max(opChunkLen, n)
		r.ops, r.defs = make([]uint64, 0, size), make([]int64, 0, size)
		b = 0
	}
	r.ops, r.defs = r.ops[:b+n], r.defs[:b+n]
	r.nops += n
	c.end[i] = r.nops
	r.n++
	return r.ops[b : b+n : b+n], r.defs[b : b+n : b+n]
}

// SetResult records the result bits of event ev.
func (r *Recorder) SetResult(ev int64, bits uint64) {
	r.events[ev>>chunkBits].res[ev&chunkMask] = bits
}

// access returns the chunk and index of event ev's access entry.
func (r *Recorder) access(ev int64) (*accessChunk, int32) {
	a := r.events[ev>>chunkBits].acc[ev&chunkMask]
	return r.accs[a>>chunkBits], a & chunkMask
}

// SetAccess records the effective address, stack pointer and VMA-table
// version of the load or store at event ev.
func (r *Recorder) SetAccess(ev int64, addr, sp uint64, vmaVer int) {
	c, j := r.access(ev)
	c.addr[j], c.sp[j], c.ver[j] = addr, sp, int32(vmaVer)
}

// SetMemDef records the store event that produced the value loaded at
// event ev.
func (r *Recorder) SetMemDef(ev, def int64) {
	c, j := r.access(ev)
	c.memDef[j] = def
}

// Finish returns the recorded trace, completed with the run's outputs,
// the VMA snapshots it took and the layout it ran under. The recorder is
// empty afterwards.
func (r *Recorder) Finish(outputs []Output, snapshots map[int][]mem.VMA, layout mem.Layout) *Trace {
	t := &Trace{
		Module:    r.mod,
		InstrID:   make([]int32, r.n),
		Result:    make([]uint64, r.n),
		Acc:       make([]int32, r.n),
		OpBase:    make([]int, r.n+1),
		Ops:       make([]uint64, 0, r.nops),
		OpDefs:    make([]int64, 0, r.nops),
		Addr:      make([]uint64, r.na),
		SP:        make([]uint64, r.na),
		MemDef:    make([]int64, r.na),
		VMAVer:    make([]int32, r.na),
		Outputs:   outputs,
		Snapshots: snapshots,
		Layout:    layout,
		instrs:    r.instrs,
	}
	for k, c := range r.events {
		lo := k << chunkBits
		m := min(chunkLen, r.n-lo)
		copy(t.InstrID[lo:], c.id[:m])
		copy(t.Acc[lo:], c.acc[:m])
		copy(t.Result[lo:], c.res[:m])
		copy(t.OpBase[lo+1:], c.end[:m])
	}
	for k, c := range r.accs {
		lo := k << chunkBits
		m := min(chunkLen, r.na-lo)
		copy(t.Addr[lo:], c.addr[:m])
		copy(t.SP[lo:], c.sp[:m])
		copy(t.MemDef[lo:], c.memDef[:m])
		copy(t.VMAVer[lo:], c.ver[:m])
	}
	for k := range r.opChunks {
		t.Ops = append(t.Ops, r.opChunks[k]...)
		t.OpDefs = append(t.OpDefs, r.defChunks[k]...)
	}
	t.Ops = append(t.Ops, r.ops...)
	t.OpDefs = append(t.OpDefs, r.defs...)
	*r = Recorder{}
	return t
}
