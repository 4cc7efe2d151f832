package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/mem"
)

// MaxBudget returns the largest instruction budget
// (interp.Config.MaxDynInstrs) a recording run of m may have: a run that
// exhausts budget B retires B+1 events, each with at most as many operand
// slots as m's widest instruction, and every event and slot index of a
// trace must fit in an int32. Both engines clamp a recording run's budget
// to it, so a run that reaches it ends as a hang.
func MaxBudget(m *ir.Module) int64 {
	width := 1
	for _, in := range m.Instrs() {
		width = max(width, NumOperands(in))
	}
	return math.MaxInt32/int64(width) - 1
}

// Chunk sizes of a recording, in elements. A chunk of events holds 16 B
// per event and a chunk of accesses 24 B per access, so each is a few
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
	memDef [chunkLen]int32
	ver    [chunkLen]int32
}

// opChunk holds the operands of consecutive events, their values and defs
// as the engines read them: room for at least opChunkLen of them, n in
// use.
type opChunk struct {
	ops  []uint64
	defs []int32
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
		return &opChunk{ops: make([]uint64, opChunkLen), defs: make([]int32, opChunkLen)}
	}}
	// memDefPages holds zeroed shadow pages.
	memDefPages = sync.Pool{New: func() any { return new(memDefPage) }}
)

// Recorder builds the trace of one run. Both execution engines record
// through it: Begin for every retired event, then SetResult, SetAccess,
// SetStore and SetLoadDef as the event executes, and Finish at the end of
// the run. The recorder tracks which store last wrote each byte, so a
// load's memory def needs only its address.
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

	// defs shadows simulated memory per page: for each byte, the last
	// store that wrote it (see memDefPage). defKey/defPage cache the page
	// of the last load or store, &noMemDefs for a page no store wrote.
	defs    map[uint64]*memDefPage
	defKey  uint64
	defPage *memDefPage
}

// memDefPage holds, for each byte of one simulated page, one more than
// the event of the last store that wrote it, or zero when no store of the
// run has. Event indices fit in an int32 (MaxBudget), so one more does
// too.
type memDefPage [mem.PageSize]int32

// noMemDefs stands in for a page no store has written. It is never
// written: SetStore replaces it with a page of its own first.
var noMemDefs memDefPage

// NewRecorder returns a recorder for a run of m.
func NewRecorder(m *ir.Module) *Recorder {
	return &Recorder{mod: m, instrs: m.Instrs()}
}

// Begin records a new event of instruction in and returns its operand
// slots, NumOperands(in) of each, for the caller to fill before the next
// Begin: each operand's value, and its defining event or -1 (NoDef). The
// event's result is zero and, for a load or store, its access state is
// zero with no memory def, until set. The caller keeps the recording
// within MaxBudget.
func (r *Recorder) Begin(in *ir.Instr) (ops []uint64, defs []int32) {
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
		a.addr[j], a.sp[j], a.memDef[j], a.ver[j] = 0, 0, int32(NoDef), 0
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
			oc = &opChunk{ops: make([]uint64, n), defs: make([]int32, n)}
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

// SetStore records that the store at event ev wrote size bytes at addr,
// so a later load of any of them has ev as its memory def.
func (r *Recorder) SetStore(ev int64, addr uint64, size int64) {
	for size > 0 {
		key, off := addr/mem.PageSize, addr%mem.PageSize
		p := r.memDefs(key)
		if p == &noMemDefs {
			p = memDefPages.Get().(*memDefPage)
			if r.defs == nil {
				r.defs = make(map[uint64]*memDefPage)
			}
			r.defs[key], r.defPage = p, p
		}
		n := min(uint64(size), mem.PageSize-off)
		for i := range n {
			p[off+i] = int32(ev + 1)
		}
		addr += n
		size -= int64(n)
	}
}

// SetLoadDef records the memory def of the load at event ev that read
// addr: the last store that wrote the byte at addr, if any.
func (r *Recorder) SetLoadDef(ev int64, addr uint64) {
	if d := r.memDefs(addr / mem.PageSize)[addr%mem.PageSize]; d != 0 {
		c, j := r.access(ev)
		c.memDef[j] = d - 1
	}
}

// memDefs returns the shadow page of page key, &noMemDefs when no store
// has written it, and caches it as the last page touched.
func (r *Recorder) memDefs(key uint64) *memDefPage {
	if r.defPage == nil || r.defKey != key {
		p := r.defs[key]
		if p == nil {
			p = &noMemDefs
		}
		r.defKey, r.defPage = key, p
	}
	return r.defPage
}

// Finish returns the recorded trace, completed with the run's outputs,
// the VMA snapshots it took and the layout it ran under. It moves the
// values of operands without a def to the Imm column, and checks that
// every other operand's value is its def's result: a recording where one
// is not is an error, never a trace. The recorder's chunks go back for the
// next recording, and the recorder is empty afterwards.
func (r *Recorder) Finish(outputs []Output, snapshots map[int][]mem.VMA, layout mem.Layout) (*Trace, error) {
	defer func() { *r = Recorder{} }()
	if r.n > math.MaxInt32 || r.nops > math.MaxInt32 {
		r.recycle()
		return nil, fmt.Errorf("trace: %d events and %d operand slots exceed the recording limit", r.n, r.nops)
	}
	t := &Trace{
		Module:    r.mod,
		InstrID:   make([]int32, r.n),
		Result:    make([]uint64, r.n),
		Acc:       make([]int32, r.n),
		OpBase:    make([]int32, r.n+1),
		OpDefs:    make([]int32, r.nops),
		Addr:      make([]uint64, r.na),
		SP:        make([]uint64, r.na),
		MemDef:    make([]int32, r.na),
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
	}
	for k, c := range r.accs {
		lo := k << chunkBits
		m := min(chunkLen, r.na-lo)
		copy(t.Addr[lo:], c.addr[:m])
		copy(t.SP[lo:], c.sp[:m])
		copy(t.MemDef[lo:], c.memDef[:m])
		copy(t.VMAVer[lo:], c.ver[:m])
	}
	// Each event's operands follow the previous event's, so OpBase is the
	// running sum of the recorded instructions' operand counts.
	base := int32(0)
	for i, id := range t.InstrID {
		base += int32(NumOperands(r.instrs[id]))
		t.OpBase[i+1] = base
	}
	nimm := 0
	for _, c := range r.ops {
		nimm += noDefs(c.defs[:c.n])
	}
	t.Imm = make([]uint64, 0, nimm)
	s := 0
	for _, c := range r.ops {
		if err := t.setOperands(s, c.defs[:c.n], c.ops[:c.n]); err != nil {
			r.recycle()
			return nil, err
		}
		s += c.n
	}
	r.recycle()
	return t, nil
}

// noDefs counts the operands without a def.
func noDefs(defs []int32) int {
	n := 0
	for _, d := range defs {
		if d < 0 {
			n++
		}
	}
	return n
}

// setOperands fills the OpDefs entries of the operand slots from s on
// with the defs and values the operands were read with, a negative def
// meaning none: a value without a def goes to Imm, and one with a def
// must be that def's result. Result and OpBase must be complete, every def
// an earlier event, and Imm must have room for the values it receives.
func (t *Trace) setOperands(s int, defs []int32, vals []uint64) error {
	for j, d := range defs {
		v := vals[j]
		if d < 0 {
			d = ^int32(len(t.Imm))
			t.Imm = append(t.Imm, v)
		} else if t.Result[d] != v {
			ev := sort.Search(len(t.InstrID), func(i int) bool { return int(t.OpBase[i+1]) > s+j })
			return fmt.Errorf("trace: event %d operand %d is %#x, but its def, event %d, produced %#x",
				ev, s+j-int(t.OpBase[ev]), v, d, t.Result[d])
		}
		t.OpDefs[s+j] = d
	}
	return nil
}

// recycle returns the recorder's chunks to their pools.
func (r *Recorder) recycle() {
	for _, c := range r.events {
		eventChunks.Put(c)
	}
	for _, c := range r.accs {
		accessChunks.Put(c)
	}
	for _, c := range r.ops {
		opChunks.Put(c)
	}
	for _, p := range r.defs {
		clear(p[:])
		memDefPages.Put(p)
	}
}
