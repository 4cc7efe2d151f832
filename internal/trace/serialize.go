package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/ir"
	"repro/internal/mem"
)

// The on-disk representation references static instructions by ID, so a
// saved trace can only be loaded against the module that produced it (same
// name and instruction count — compilation is deterministic, so a rebuild
// of the same source matches). Profiling a large benchmark once and
// re-analyzing offline mirrors how the paper separates its profiling and
// modelling phases.
//
// The format is the trace's columns, written in order as varints after a
// magic line and a format version:
//
//	"epvf-trace\n" version
//	module name, static instruction count
//	layout (8 fields)
//	InstrID, Result, Acc, OpBase, Ops, OpDefs, Addr, SP, MemDef, VMAVer
//	outputs
//	snapshots, in version order
//
// Ops is not a column of Trace: it is every operand slot's value (what
// Trace.Op returns), and OpDefs writes a slot without a def as NoDef, so
// the in-memory Imm column is not written. Every column and list is
// prefixed with its length; strings likewise. Unsigned values are
// uvarints and signed ones zig-zag varints. The bytes are a function of
// the trace alone.

const formatVersion = 2

var traceMagic = []byte("epvf-trace\n")

// Save writes the trace in the versioned columnar format.
func (t *Trace) Save(w io.Writer) error {
	e := &encoder{w: w, buf: make([]byte, 0, encodeChunk+binary.MaxVarintLen64)}
	e.buf = append(e.buf, traceMagic...)
	e.uvarint(formatVersion)
	e.uvarint(uint64(len(t.Module.Name)))
	e.buf = append(e.buf, t.Module.Name...)
	e.uvarint(uint64(len(t.instrs)))
	l := t.Layout
	for _, v := range []uint64{l.TextBase, l.RODataBase, l.DataBase, l.HeapBase, l.MmapBase, l.StackTop, l.StackRLimit} {
		e.uvarint(v)
	}
	e.varint(int64(l.InitialStackPages))

	putInts(e, t.InstrID)
	putUints(e, t.Result)
	putInts(e, t.Acc)
	putInts(e, t.OpBase)
	e.uvarint(uint64(t.NumSlots()))
	for k := range t.OpDefs {
		e.uvarint(t.Op(k))
	}
	e.uvarint(uint64(t.NumSlots()))
	for _, d := range t.OpDefs {
		e.varint(max(int64(d), NoDef))
	}
	putUints(e, t.Addr)
	putUints(e, t.SP)
	putInts(e, t.MemDef)
	putInts(e, t.VMAVer)

	e.uvarint(uint64(len(t.Outputs)))
	for _, o := range t.Outputs {
		e.varint(o.EventIdx)
		e.varint(o.Def)
		e.uvarint(o.Bits)
		e.varint(int64(o.Width))
	}
	versions := make([]int, 0, len(t.Snapshots))
	for v := range t.Snapshots {
		versions = append(versions, v)
	}
	slices.Sort(versions)
	e.uvarint(uint64(len(versions)))
	for _, v := range versions {
		vmas := t.Snapshots[v]
		e.varint(int64(v))
		e.uvarint(uint64(len(vmas)))
		for _, m := range vmas {
			e.uvarint(m.Start)
			e.uvarint(m.End)
			e.uvarint(uint64(m.Perm))
			e.varint(int64(m.Kind))
		}
	}
	e.flush()
	if e.err != nil {
		return fmt.Errorf("trace: encoding: %w", e.err)
	}
	return nil
}

// encodeChunk is how many encoded bytes Save buffers between writes.
const encodeChunk = 64 << 10

// encoder appends varints to a buffer and writes it out in chunks. The
// first write error sticks.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
	if len(e.buf) >= encodeChunk {
		e.flush()
	}
}

func (e *encoder) varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
	if len(e.buf) >= encodeChunk {
		e.flush()
	}
}

func (e *encoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func putUints(e *encoder, xs []uint64) {
	e.uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.uvarint(x)
	}
}

func putInts(e *encoder, xs []int32) {
	e.uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.varint(int64(x))
	}
}

// decoder reads the format from memory, so a corrupt length can be
// checked against the bytes left before anything is allocated for it.
// The first error sticks; later reads return zeros.
type decoder struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated or malformed varint")

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a length prefix for items of at least size bytes each.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/size) {
		d.err = fmt.Errorf("length %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func getUints(d *decoder) []uint64 {
	xs := make([]uint64, d.count(1))
	for i := range xs {
		xs[i] = d.uvarint()
	}
	return xs
}

// getInts reads a column of 32-bit integers; every index column is one.
func getInts(d *decoder, name string) []int32 {
	xs := make([]int32, d.count(1))
	for i := range xs {
		v := d.varint()
		xs[i] = int32(v)
		if int64(xs[i]) != v && d.err == nil {
			d.err = fmt.Errorf("%s entry %d is %d, outside int32", name, i, v)
		}
	}
	return xs
}

// Load reads a trace saved by Save and re-binds it to m, which must be the
// module (or an identical recompilation of the module) that produced it.
// It rejects any other format version, and any trace whose columns
// disagree in length, whose instruction IDs fall outside m, whose operand
// offsets do not step by each instruction's operand count, whose access
// numbers are not dense over exactly the loads and stores, whose operand,
// memory or output defs point anywhere but an earlier event, or where an
// operand's value differs from its def's result (the in-memory layout
// keeps only the latter).
func Load(r io.Reader, m *ir.Module) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	if len(data) < len(traceMagic) || string(data[:len(traceMagic)]) != string(traceMagic) {
		return nil, errors.New("trace: not a saved trace")
	}
	d := &decoder{b: data[len(traceMagic):]}
	if v := d.uvarint(); d.err == nil && v != formatVersion {
		return nil, fmt.Errorf("trace: format version %d, want %d", v, formatVersion)
	}
	nlen := d.count(1)
	name := string(d.b[:nlen])
	d.b = d.b[nlen:]
	numInstrs := d.uvarint()
	var l mem.Layout
	for _, f := range []*uint64{&l.TextBase, &l.RODataBase, &l.DataBase, &l.HeapBase, &l.MmapBase, &l.StackTop, &l.StackRLimit} {
		*f = d.uvarint()
	}
	l.InitialStackPages = int(d.varint())
	tr := &Trace{Module: m, Layout: l, instrs: m.Instrs()}
	tr.InstrID = getInts(d, "InstrID")
	tr.Result = getUints(d)
	tr.Acc = getInts(d, "Acc")
	tr.OpBase = getInts(d, "OpBase")
	ops := getUints(d)
	tr.OpDefs = getInts(d, "OpDefs")
	tr.Addr = getUints(d)
	tr.SP = getUints(d)
	tr.MemDef = getInts(d, "MemDef")
	tr.VMAVer = getInts(d, "VMAVer")
	tr.Outputs = make([]Output, d.count(4))
	for i := range tr.Outputs {
		tr.Outputs[i] = Output{EventIdx: d.varint(), Def: d.varint(), Bits: d.uvarint(), Width: int(d.varint())}
	}
	nsnap := d.count(2)
	tr.Snapshots = make(map[int][]mem.VMA, nsnap)
	for range nsnap {
		v := int(d.varint())
		vmas := make([]mem.VMA, d.count(4))
		for j := range vmas {
			vmas[j] = mem.VMA{Start: d.uvarint(), End: d.uvarint(), Perm: mem.Perm(d.uvarint()), Kind: mem.SegKind(d.varint())}
		}
		tr.Snapshots[v] = vmas
	}
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("trace: decoding: %w", d.err)
	}
	if name != m.Name {
		return nil, fmt.Errorf("trace: saved for module %q, loading against %q", name, m.Name)
	}
	if numInstrs != uint64(m.NumInstrs()) {
		return nil, fmt.Errorf("trace: saved against %d static instructions, module has %d",
			numInstrs, m.NumInstrs())
	}
	if err := tr.validate(ops); err != nil {
		return nil, err
	}
	tr.Imm = make([]uint64, 0, noDefs(tr.OpDefs))
	if err := tr.setOperands(0, tr.OpDefs, ops); err != nil {
		return nil, err
	}
	return tr, nil
}

// validate checks a decoded trace's columns against each other, its
// module and ops, the saved value of every operand slot, so neither
// setOperands nor an analysis of a loaded trace indexes out of range.
func (t *Trace) validate(ops []uint64) error {
	n := len(t.InstrID)
	if len(t.Result) != n || len(t.Acc) != n || len(t.OpBase) != n+1 {
		return fmt.Errorf("trace: %d events but %d results, %d access numbers and %d operand offsets",
			n, len(t.Result), len(t.Acc), len(t.OpBase))
	}
	if len(t.OpDefs) != len(ops) || int(t.OpBase[n]) != len(ops) {
		return fmt.Errorf("trace: %d operands and %d operand defs, offsets end at %d",
			len(ops), len(t.OpDefs), t.OpBase[n])
	}
	na := len(t.Addr)
	if len(t.SP) != na || len(t.MemDef) != na || len(t.VMAVer) != na {
		return fmt.Errorf("trace: access columns of %d, %d, %d and %d entries",
			na, len(t.SP), len(t.MemDef), len(t.VMAVer))
	}
	if t.OpBase[0] != 0 {
		return fmt.Errorf("trace: operand offsets start at %d", t.OpBase[0])
	}
	acc := int32(0)
	for i := range n {
		id := t.InstrID[i]
		if id < 0 || int(id) >= len(t.instrs) {
			return fmt.Errorf("trace: event %d references unknown instruction %d", i, id)
		}
		in := t.instrs[id]
		lo, hi := int(t.OpBase[i]), int(t.OpBase[i+1])
		if hi > len(ops) {
			return fmt.Errorf("trace: event %d operands end at %d, past the %d recorded", i, hi, len(ops))
		}
		if got := hi - lo; got != NumOperands(in) {
			return fmt.Errorf("trace: event %d records %d operands, %s has %d", i, got, in.Op, NumOperands(in))
		}
		for _, d := range t.OpDefs[lo:hi] {
			if !validDef(int64(d), int64(i)) {
				return fmt.Errorf("trace: event %d has operand def %d outside [0, %d)", i, d, i)
			}
		}
		want := int32(-1)
		if in.Op.IsMemAccess() {
			want = acc
			acc++
		}
		if t.Acc[i] != want {
			return fmt.Errorf("trace: event %d (%s) has access number %d, want %d", i, in.Op, t.Acc[i], want)
		}
		if want >= 0 && int(want) < na && !validDef(int64(t.MemDef[want]), int64(i)) {
			return fmt.Errorf("trace: event %d has memory def %d outside [0, %d)", i, t.MemDef[want], i)
		}
	}
	if int(acc) != na {
		return fmt.Errorf("trace: %d loads and stores but %d access entries", acc, na)
	}
	for i, o := range t.Outputs {
		if o.EventIdx < 0 || o.EventIdx >= t.NumEvents() {
			return fmt.Errorf("trace: output %d at event %d outside [0, %d)", i, o.EventIdx, t.NumEvents())
		}
		if !validDef(o.Def, o.EventIdx) {
			return fmt.Errorf("trace: output %d has def %d outside [0, %d)", i, o.Def, o.EventIdx)
		}
	}
	return nil
}

// validDef reports whether def may be recorded as a dependence of event
// at: NoDef, or an earlier event. A saved trace that breaks this would
// index past the event list during analysis.
func validDef(def, at int64) bool {
	return def == NoDef || (def >= 0 && def < at)
}
