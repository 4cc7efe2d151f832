package trace

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/mem"
)

// Chunk sizes of a recording, in elements. A chunk of events holds 16 B
// per event and a chunk of accesses 28 B per access, so each is a few
// hundred KiB.
const (
	chunkBits  = 14
	chunkLen   = 1 << chunkBits
	chunkMask  = chunkLen - 1
	opChunkLen = 2 * chunkLen
)

// eventChunk holds the per-event columns of chunkLen consecutive events.
// OpBase is not among them: Finish derives it from InstrID.
type eventChunk struct {
	id  [chunkLen]int32
	acc [chunkLen]int32
	res [chunkLen]uint64
}

// accessChunk holds the access columns of chunkLen consecutive accesses.
type accessChunk struct {
	addr   [chunkLen]uint64
	sp     [chunkLen]uint64
	memDef [chunkLen]int64
	ver    [chunkLen]int32
}

// opChunk holds the operands of consecutive events: room for at least
// opChunkLen of them, n in use.
type opChunk struct {
	ops  []uint64
	defs []int64
	n    int
}

// Chunks are recycled across recordings, so a warm recording allocates
// only the columns Finish returns. A recycled chunk holds an earlier
// run's values: Begin resets every slot it hands out that the run might
// leave unset.
var (
	eventChunks  = sync.Pool{New: func() any { return new(eventChunk) }}
	accessChunks = sync.Pool{New: func() any { return new(accessChunk) }}
	opChunks     = sync.Pool{New: func() any {
		return &opChunk{ops: make([]uint64, opChunkLen), defs: make([]int64, opChunkLen)}
	}}
)

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
	// ops holds the operand chunks; cur, the last, is being filled. An
	// event's operands never straddle chunks.
	ops  []*opChunk
	cur  *opChunk
	nops int // operands recorded
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
		r.events = append(r.events, eventChunks.Get().(*eventChunk))
	}
	c := r.events[len(r.events)-1]
	c.id[i] = int32(in.ID)
	c.acc[i] = -1
	c.res[i] = 0
	if in.Op.IsMemAccess() {
		j := r.na & chunkMask
		if j == 0 {
			r.accs = append(r.accs, accessChunks.Get().(*accessChunk))
		}
		a := r.accs[len(r.accs)-1]
		a.addr[j], a.sp[j], a.memDef[j], a.ver[j] = 0, 0, NoDef, 0
		c.acc[i] = int32(r.na)
		r.na++
	}
	r.n++
	n := NumOperands(in)
	oc := r.cur
	if oc == nil || oc.n+n > len(oc.ops) {
		if n <= opChunkLen {
			oc = opChunks.Get().(*opChunk)
		} else {
			// An event with more operands than a chunk holds gets its own.
			oc = &opChunk{ops: make([]uint64, n), defs: make([]int64, n)}
		}
		oc.n = 0
		r.ops = append(r.ops, oc)
		r.cur = oc
	}
	b := oc.n
	oc.n += n
	r.nops += n
	return oc.ops[b : b+n : b+n], oc.defs[b : b+n : b+n]
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
// the VMA snapshots it took and the layout it ran under. The recorder's
// chunks go back for the next recording, and the recorder is empty
// afterwards.
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
		eventChunks.Put(c)
	}
	for k, c := range r.accs {
		lo := k << chunkBits
		m := min(chunkLen, r.na-lo)
		copy(t.Addr[lo:], c.addr[:m])
		copy(t.SP[lo:], c.sp[:m])
		copy(t.MemDef[lo:], c.memDef[:m])
		copy(t.VMAVer[lo:], c.ver[:m])
		accessChunks.Put(c)
	}
	for _, c := range r.ops {
		t.Ops = append(t.Ops, c.ops[:c.n]...)
		t.OpDefs = append(t.OpDefs, c.defs[:c.n]...)
		opChunks.Put(c)
	}
	// Each event's operands follow the previous event's, so OpBase is the
	// running sum of the recorded instructions' operand counts.
	base := 0
	for i, id := range t.InstrID {
		base += NumOperands(r.instrs[id])
		t.OpBase[i+1] = base
	}
	*r = Recorder{}
	return t
}
