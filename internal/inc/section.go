package inc

import (
	"encoding/binary"
	"slices"
	"strings"

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
const sliceTag = "epvf-inc-slice-v2"

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
	events []int32
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
	// nameOrder lists the section indices sorted by section name: the
	// order of a profile's name table and of a footprint.
	nameOrder []int32
	// owner[ev] is the section index of the event's owning function;
	// ordinal[ev] is the event's position inside that section. int32
	// bounds both at ~2.1e9, far above the interpreter's instruction
	// budget.
	owner   []int32
	ordinal []int32
	// walker is the seed walker every fresh section of the partition
	// walks on, built by the first of them.
	walker *rangeprop.SeedWalker
}

// sectionize partitions the trace by owning function and identifies each
// section's walk seeds. Section order follows first appearance in the
// trace, so ordinals and indices are deterministic for a given trace.
func sectionize(tr *trace.Trace, aceMask []bool) *partition {
	n := tr.NumEvents()
	p := &partition{
		byName:  make(map[string]*section),
		owner:   make([]int32, n),
		ordinal: make([]int32, n),
	}
	instrs := tr.Instrs()
	// byID caches each instruction's section once it has executed.
	byID := make([]*section, len(instrs))
	// The first pass assigns owners and ordinals and counts each
	// section's events and seeds; the second fills the sections at their
	// exact sizes.
	var sizes []struct{ events, seeds int }
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
				sizes = append(sizes, struct{ events, seeds int }{})
			}
			byID[id] = s
		}
		p.owner[i] = int32(s.index)
		size := &sizes[s.index]
		p.ordinal[i] = int32(size.events)
		size.events++
		if aceMask[i] && tr.Acc[i] >= 0 {
			size.seeds++
		}
	}
	events := make([]int32, n)
	nSeeds := 0
	for _, size := range sizes {
		nSeeds += size.seeds
	}
	seeds := make([]int64, nSeeds)
	for i, s := range p.sections {
		size := sizes[i]
		s.events, events = events[:0:size.events], events[size.events:]
		s.seeds, seeds = seeds[:0:size.seeds], seeds[size.seeds:]
	}
	for i, si := range p.owner {
		s := p.sections[si]
		s.events = append(s.events, int32(i))
		if aceMask[i] && tr.Acc[i] >= 0 {
			s.seeds = append(s.seeds, int64(i))
		}
	}
	p.nameOrder = make([]int32, len(p.sections))
	for i := range p.nameOrder {
		p.nameOrder[i] = int32(i)
	}
	slices.SortFunc(p.nameOrder, func(a, b int32) int {
		return strings.Compare(p.sections[a].name, p.sections[b].name)
	})
	return p
}

// hashChunk is the size at which hashSections hands its buffered fields to
// the hasher.
const hashChunk = 8 << 10

// Boundary markers of a load or store in the slice hash.
const (
	notSeed        = 0 // not an ACE-graph access
	seedUnresolved = 1 // a seed whose crash-model boundary did not resolve
	seedBound      = 2 // a seed, followed by its boundary
)

// hashSections computes every section's dynamic-slice hash. The hash must
// cover everything a walk seeded in or passing through the section can
// read:
//
//   - the function's static IR (content.FuncHash — opcode, operand shape,
//     widths, GEP element sizes all live there);
//   - per event: the static instruction's function-local ID, the operand
//     bit patterns (Trace.Op), and the def links (OpDefs, and MemDef for
//     loads) as refs in relative coordinates (appendRef), so an unrelated
//     change elsewhere shifting global event indices does not disturb the
//     hash;
//   - per load or store: a marker telling whether it is one of the
//     section's seeds (an ACE memory access), and for a seed whether the
//     crash-model boundary resolved and to what — which folds in the VMA
//     snapshots, stack pointer and layout the model consults — plus,
//     under ExactAddress, the exact seed mask. The marker encodes ACE
//     membership itself, so a seed appearing or disappearing (an
//     output-reachability change) invalidates the section even when its
//     values are untouched.
//
// Every field is fixed-width or self-delimiting, and the static IR fixes
// which fields follow a local ID (the operand count, whether a load or a
// store), so the byte stream decodes uniquely and equal slice hashes
// imply: same seeds, same boundary, and the same value/def content at
// every step a walk can take inside the section.
func (p *partition) hashSections(tr *trace.Trace, aceMask []bool, cfg rangeprop.Config) {
	model := cfg.Model
	if model == nil {
		model = crash.NewModel()
	}
	buf := make([]byte, 0, 2*hashChunk)
	instrs := tr.Instrs()
	le := binary.LittleEndian
	for _, s := range p.sections {
		h := content.NewHasher(sliceTag)
		static := "-"
		if s.fn != nil {
			static = content.FuncHash(s.fn)
		}
		h.Printf("func %s %s\n", s.name, static)
		for _, e := range s.events {
			ev := int64(e)
			in := instrs[tr.InstrID[ev]]
			slots := int(tr.OpBase[ev])
			buf = le.AppendUint32(buf, uint32(in.LocalID))
			for i, d := range tr.OpDefsOf(ev) {
				buf = le.AppendUint64(buf, tr.Op(slots+i))
				buf = p.appendRef(buf, s, int64(d))
			}
			if in.Op == ir.OpLoad {
				buf = p.appendRef(buf, s, tr.MemDefOf(ev))
			}
			switch {
			case in.Op != ir.OpLoad && in.Op != ir.OpStore:
			case !aceMask[ev] || tr.Acc[ev] < 0:
				buf = append(buf, notSeed)
			default:
				bound, ok := model.Boundary(tr, ev)
				if !ok {
					buf = append(buf, seedUnresolved)
				} else {
					buf = append(buf, seedBound)
					buf = le.AppendUint64(buf, uint64(bound.Lo))
					buf = le.AppendUint64(buf, uint64(bound.Hi))
					if cfg.ExactAddress {
						ptrOp := 0
						if in.Op == ir.OpStore {
							ptrOp = 1
						}
						mask := model.MaskExact(tr, ev, tr.Op(slots+ptrOp), trace.OperandWidth(in, ptrOp))
						buf = le.AppendUint64(buf, mask)
					}
				}
			}
			if len(buf) >= hashChunk {
				h.Write(buf)
				buf = buf[:0]
			}
		}
		h.Write(buf)
		buf = buf[:0]
		s.hash = h.Sum()
	}
}

// Def-link markers of appendRef.
const (
	refNone  = 0 // no def
	refLocal = 1 // a def in the same section, followed by its ordinal
	refOther = 2 // a def in another section, followed by its name and ordinal
)

// appendRef appends a def link in coordinates relative to section s: a
// marker, then for a def in s its ordinal, and for a def elsewhere its
// section's name (uvarint length, then the bytes) and its ordinal there.
// Ordinals are uvarints; no def (a negative def) is the marker alone.
func (p *partition) appendRef(buf []byte, s *section, def int64) []byte {
	if def < 0 {
		return append(buf, refNone)
	}
	if owner := p.sections[p.owner[def]]; owner != s {
		buf = append(buf, refOther)
		buf = binary.AppendUvarint(buf, uint64(len(owner.name)))
		buf = append(buf, owner.name...)
	} else {
		buf = append(buf, refLocal)
	}
	return binary.AppendUvarint(buf, uint64(p.ordinal[def]))
}
