package trace

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/ir"
	"repro/internal/mem"
)

// The on-disk representation references static instructions by ID, so a
// saved trace can only be loaded against the module that produced it (same
// name and instruction count — compilation is deterministic, so a rebuild
// of the same source matches). Profiling a large benchmark once and
// re-analyzing offline mirrors how the paper separates its profiling and
// modelling phases.

type savedEvent struct {
	InstrID int32
	Ops     []uint64
	OpDefs  []int64
	Result  uint64
	Addr    uint64
	MemDef  int64
	VMAVer  int32
	SP      uint64
}

type savedTrace struct {
	ModuleName string
	NumInstrs  int
	Events     []savedEvent
	Outputs    []Output
	Snapshots  map[int][]mem.VMA
	Layout     mem.Layout
}

// Save writes the trace in gob form.
func (t *Trace) Save(w io.Writer) error {
	st := savedTrace{
		ModuleName: t.Module.Name,
		NumInstrs:  t.Module.NumInstrs(),
		Events:     make([]savedEvent, len(t.Events)),
		Outputs:    t.Outputs,
		Snapshots:  t.Snapshots,
		Layout:     t.Layout,
	}
	for i := range t.Events {
		e := &t.Events[i]
		st.Events[i] = savedEvent{
			InstrID: int32(e.Instr.ID),
			Ops:     e.Ops,
			OpDefs:  e.OpDefs,
			Result:  e.Result,
			Addr:    e.Addr,
			MemDef:  e.MemDef,
			VMAVer:  int32(e.VMAVer),
			SP:      e.SP,
		}
	}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("trace: encoding: %w", err)
	}
	return nil
}

// Load reads a trace saved by Save and re-binds it to m, which must be the
// module (or an identical recompilation of the module) that produced it.
// It rejects a trace whose events do not fit their instructions' operand
// counts, or whose operand, memory or output defs point anywhere but an
// earlier event.
func Load(r io.Reader, m *ir.Module) (*Trace, error) {
	var st savedTrace
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("trace: decoding: %w", err)
	}
	if st.ModuleName != m.Name {
		return nil, fmt.Errorf("trace: saved for module %q, loading against %q", st.ModuleName, m.Name)
	}
	if st.NumInstrs != m.NumInstrs() {
		return nil, fmt.Errorf("trace: saved against %d static instructions, module has %d",
			st.NumInstrs, m.NumInstrs())
	}
	byID := make([]*ir.Instr, m.NumInstrs())
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				byID[in.ID] = in
			}
		}
	}
	tr := &Trace{
		Module:    m,
		Events:    make([]Event, len(st.Events)),
		Outputs:   st.Outputs,
		Snapshots: st.Snapshots,
		Layout:    st.Layout,
	}
	for i := range st.Events {
		se := &st.Events[i]
		if int(se.InstrID) < 0 || int(se.InstrID) >= len(byID) {
			return nil, fmt.Errorf("trace: event %d references unknown instruction %d", i, se.InstrID)
		}
		in := byID[se.InstrID]
		if n := NumOperands(in); len(se.Ops) != n || len(se.OpDefs) != n {
			return nil, fmt.Errorf("trace: event %d records %d operands and %d operand defs, %s has %d",
				i, len(se.Ops), len(se.OpDefs), in.Op, n)
		}
		for _, d := range se.OpDefs {
			if !validDef(d, int64(i)) {
				return nil, fmt.Errorf("trace: event %d has operand def %d outside [0, %d)", i, d, i)
			}
		}
		if !validDef(se.MemDef, int64(i)) {
			return nil, fmt.Errorf("trace: event %d has memory def %d outside [0, %d)", i, se.MemDef, i)
		}
		tr.Events[i] = Event{
			Instr:  in,
			Ops:    se.Ops,
			OpDefs: se.OpDefs,
			Result: se.Result,
			Addr:   se.Addr,
			MemDef: se.MemDef,
			VMAVer: int(se.VMAVer),
			SP:     se.SP,
		}
	}
	for i, o := range tr.Outputs {
		if o.EventIdx < 0 || o.EventIdx >= tr.NumEvents() {
			return nil, fmt.Errorf("trace: output %d at event %d outside [0, %d)", i, o.EventIdx, tr.NumEvents())
		}
		if !validDef(o.Def, o.EventIdx) {
			return nil, fmt.Errorf("trace: output %d has def %d outside [0, %d)", i, o.Def, o.EventIdx)
		}
	}
	return tr, nil
}

// validDef reports whether def may be recorded as a dependence of event
// at: NoDef, or an earlier event. A saved trace that breaks this would
// index past the event list during analysis.
func validDef(def, at int64) bool {
	return def == NoDef || (def >= 0 && def < at)
}
