package inc

import (
	"strconv"

	"repro/internal/content"
	"repro/internal/crash"
	"repro/internal/ir"
	"repro/internal/rangeprop"
	"repro/internal/trace"
)

// sliceTag is the domain tag of a section's dynamic-slice hash: a digest
// over every piece of recorded state a propagation walk can read from the
// section's events. Two sections with equal slice hashes are
// indistinguishable to the model — any walk step through one retraces
// bit-identically through the other.
const sliceTag = "epvf-inc-slice-v1"

// detachedName is the pseudo-section owning events whose instruction has
// no parent function (never produced by the current interpreter; kept so a
// malformed trace degrades to a recompute instead of a panic).
const detachedName = "(detached)"

// section is one unit of incremental reuse: the dynamic events owned by a
// single function, in trace order, plus the model walks they seed.
type section struct {
	index int
	name  string
	fn    *ir.Function // nil only for the detached pseudo-section
	// events are the global trace indices owned by the function; an
	// event's function-local ordinal is its position here. Profiles are
	// stored in (section name, ordinal) coordinates, so they survive the
	// global renumbering a change elsewhere in the module causes.
	events []int64
	// seeds are the ACE-graph memory accesses among events — the walks
	// this section contributes to the module model.
	seeds []int64
	// hash is the dynamic-slice hash (computed by hashSections).
	hash string
}

// partition splits one trace into sections and carries the event→section
// reverse maps needed to express def links and walk footprints in
// function-relative coordinates.
type partition struct {
	sections []*section
	byName   map[string]*section
	// owner[ev] is the section index of the event's owning function;
	// ordinal[ev] is the event's position inside that section. int32
	// bounds both at ~2.1e9, far above the interpreter's instruction
	// budget.
	owner   []int32
	ordinal []int32
	// ops is the trace's operand table, built by the first section
	// computed fresh and shared by the rest.
	ops *rangeprop.OperandTable
}

// sectionize partitions the trace by owning function and identifies each
// section's walk seeds. Section order follows first appearance in the
// trace, so ordinals and indices are deterministic for a given trace.
func sectionize(tr *trace.Trace, aceMask []bool) *partition {
	p := &partition{
		byName:  make(map[string]*section),
		owner:   make([]int32, tr.NumEvents()),
		ordinal: make([]int32, tr.NumEvents()),
	}
	instrs := tr.Instrs()
	// byID caches each instruction's section once it has executed.
	byID := make([]*section, len(instrs))
	for i, id := range tr.InstrID {
		s := byID[id]
		if s == nil {
			fn := instrs[id].Func()
			name := detachedName
			if fn != nil {
				name = fn.Name
			}
			s = p.byName[name]
			if s == nil {
				s = &section{index: len(p.sections), name: name, fn: fn}
				p.sections = append(p.sections, s)
				p.byName[name] = s
			}
			byID[id] = s
		}
		p.owner[i] = int32(s.index)
		p.ordinal[i] = int32(len(s.events))
		s.events = append(s.events, int64(i))
		if aceMask[i] && tr.Acc[i] >= 0 {
			s.seeds = append(s.seeds, int64(i))
		}
	}
	return p
}

// hashSections computes every section's dynamic-slice hash. The hash must
// cover everything a walk seeded in or passing through the section can
// read:
//
//   - the function's static IR (content.FuncHash — opcode, operand shape,
//     widths, GEP element sizes all live there);
//   - per event: the static instruction's function-local ID, the operand
//     bit patterns (Trace.Op), and the def links (OpDefs, and MemDef for
//     loads) expressed as (owner section, local ordinal) pairs — relative
//     coordinates, so an unrelated change elsewhere shifting global event
//     indices does not disturb the hash;
//   - for the section's own seeds (ACE memory accesses): the crash-model
//     boundary result, which folds in the VMA snapshots, stack pointer and
//     layout the model consults — and, under ExactAddress, the exact seed
//     mask. The marker's presence also encodes ACE membership itself, so a
//     seed appearing or disappearing (an output-reachability change)
//     invalidates the section even when its values are untouched.
//
// Equal slice hashes therefore imply: same seeds, same boundary, and the
// same value/def content at every step a walk can take inside the section.
func (p *partition) hashSections(tr *trace.Trace, aceMask []bool, cfg rangeprop.Config) {
	model := cfg.Model
	if model == nil {
		model = crash.NewModel()
	}
	var buf []byte
	instrs := tr.Instrs()
	for _, s := range p.sections {
		h := content.NewHasher(sliceTag)
		static := "-"
		if s.fn != nil {
			static = content.FuncHash(s.fn)
		}
		h.Printf("func %s %s\n", s.name, static)
		for _, ev := range s.events {
			in := instrs[tr.InstrID[ev]]
			slots := int(tr.OpBase[ev])
			buf = buf[:0]
			buf = append(buf, 'e', ' ')
			buf = strconv.AppendInt(buf, int64(in.LocalID), 10)
			for i, d := range tr.OpDefsOf(ev) {
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, tr.Op(slots+i), 10)
				buf = append(buf, ':')
				buf = p.appendRef(buf, int64(d))
			}
			if in.Op == ir.OpLoad {
				buf = append(buf, " m:"...)
				buf = p.appendRef(buf, tr.MemDefOf(ev))
			}
			if aceMask[ev] && tr.Acc[ev] >= 0 {
				bound, ok := model.Boundary(tr, ev)
				buf = append(buf, " b:"...)
				if ok {
					buf = append(buf, '1', ':')
					buf = strconv.AppendInt(buf, bound.Lo, 10)
					buf = append(buf, ':')
					buf = strconv.AppendInt(buf, bound.Hi, 10)
					if cfg.ExactAddress {
						ptrOp := 0
						if in.Op == ir.OpStore {
							ptrOp = 1
						}
						mask := model.MaskExact(tr, ev, tr.Op(slots+ptrOp), trace.OperandWidth(in, ptrOp))
						buf = append(buf, " x:"...)
						buf = strconv.AppendUint(buf, mask, 10)
					}
				} else {
					buf = append(buf, '0')
				}
			}
			buf = append(buf, '\n')
			h.Write(buf)
		}
		s.hash = h.Sum()
	}
}

// appendRef renders a def link in relative coordinates ("name.ordinal"),
// or "-" for no def (a negative def).
func (p *partition) appendRef(buf []byte, def int64) []byte {
	if def < 0 {
		return append(buf, '-')
	}
	buf = append(buf, p.sections[p.owner[def]].name...)
	buf = append(buf, '.')
	return strconv.AppendInt(buf, int64(p.ordinal[def]), 10)
}
