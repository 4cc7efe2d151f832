package inc

import (
	"slices"
	"testing"

	"repro/internal/crash"
	"repro/internal/ddg"
	"repro/internal/ir"
	"repro/internal/rangeprop"
	"repro/internal/trace"
)

// cloneTrace returns a copy of tr whose event columns a test may edit
// without touching tr.
func cloneTrace(tr *trace.Trace) *trace.Trace {
	cp := *tr
	cp.Result = slices.Clone(tr.Result)
	cp.OpDefs = slices.Clone(tr.OpDefs)
	cp.Imm = slices.Clone(tr.Imm)
	cp.Addr = slices.Clone(tr.Addr)
	cp.SP = slices.Clone(tr.SP)
	cp.MemDef = slices.Clone(tr.MemDef)
	cp.VMAVer = slices.Clone(tr.VMAVer)
	return &cp
}

// sectionHashes returns the slice hash of every section of tr, by name.
func sectionHashes(tr *trace.Trace, aceMask []bool) map[string]string {
	p := sectionize(tr, aceMask)
	p.hashSections(tr, aceMask, rangeprop.Config{})
	out := make(map[string]string)
	for _, s := range p.sections {
		out[s.name] = s.hash
	}
	return out
}

// TestSliceHashCoversWalkInputs: the slice hash changes with every item
// of a section that a walk can read — an operand value, a def link's
// ordinal or owning section, a load's memory def, an ACE access's
// boundary and an event's ACE membership — while an edit confined to
// another function leaves it unchanged. Each edit is made alone, on a
// copy of a recorded trace, and keeps every other field the edited
// section hashes as it was.
func TestSliceHashCoversWalkInputs(t *testing.T) {
	tr, p := kernelPartition(t, "mm")
	aceMask := ddg.New(tr).ACEMask()
	// a is the section with the most seeds; b is another one.
	a, b := p.sections[0], p.sections[1]
	for _, s := range p.sections {
		if len(s.seeds) > len(a.seeds) {
			a = s
		}
	}
	if b == a {
		b = p.sections[0]
	}
	sec := func(ev int64) *section { return p.sections[p.owner[ev]] }
	base := sectionHashes(tr, aceMask)
	if base[a.name] != a.hash {
		t.Fatalf("section %s hashes to %s on a second pass, first %s", a.name, base[a.name], a.hash)
	}
	model := crash.NewModel()

	// byValue lists every event by its result value, to find a second
	// def that yields the same operand value.
	byValue := make(map[uint64][]int64)
	for ev := range tr.NumEvents() {
		byValue[tr.Result[ev]] = append(byValue[tr.Result[ev]], ev)
	}
	// relink finds a slot of section a whose def can move to another
	// event with the same result, accepted by ok(old def, new def).
	relink := func(ok func(d, d2 int64) bool) (int, int64) {
		for _, e := range a.events {
			for i, d := range tr.OpDefsOf(int64(e)) {
				if d < 0 {
					continue
				}
				for _, d2 := range byValue[tr.Result[d]] {
					if d2 != int64(d) && ok(int64(d), d2) {
						return int(tr.OpBase[e]) + i, d2
					}
				}
			}
		}
		t.Fatal("no def link to move")
		return 0, 0
	}

	edits := []struct {
		name string
		// edit makes the change and returns the name of the section it
		// edited.
		edit func(cp *trace.Trace, mask []bool) string
	}{
		{"operand value", func(cp *trace.Trace, _ []bool) string {
			for _, e := range a.events {
				for _, d := range cp.OpDefsOf(int64(e)) {
					if d < 0 {
						cp.Imm[^d] ^= 1
						return a.name
					}
				}
			}
			t.Fatal("no immediate operand")
			return ""
		}},
		{"def link ordinal", func(cp *trace.Trace, _ []bool) string {
			s, d2 := relink(func(d, d2 int64) bool { return sec(d) == a && sec(d2) == a })
			cp.OpDefs[s] = int32(d2)
			return a.name
		}},
		{"def link owner", func(cp *trace.Trace, _ []bool) string {
			// Point a cross-section link at the event of a third section
			// with the same ordinal, and give that event the old def's
			// result: only the name in the ref differs.
			consumers := make(map[int32][]int32)
			for e := range tr.NumEvents() {
				for _, d := range tr.OpDefsOf(e) {
					if d >= 0 {
						consumers[d] = append(consumers[d], p.owner[e])
					}
				}
			}
			for _, x := range p.sections {
				for _, e := range x.events {
					for i, d := range tr.OpDefsOf(int64(e)) {
						if d < 0 || sec(int64(d)) == x {
							continue
						}
						for _, c := range p.sections {
							if c == x || c == sec(int64(d)) || int(p.ordinal[d]) >= len(c.events) {
								continue
							}
							d2 := c.events[p.ordinal[d]]
							if slices.Contains(consumers[d2], int32(x.index)) {
								continue
							}
							cp.Result[d2] = tr.Result[d]
							cp.OpDefs[int(tr.OpBase[e])+i] = d2
							return x.name
						}
					}
				}
			}
			t.Fatal("no cross-section def link to move")
			return ""
		}},
		{"load memory def", func(cp *trace.Trace, _ []bool) string {
			for _, e := range a.events {
				if ev := int64(e); tr.Instr(ev).Op == ir.OpLoad {
					acc := tr.Acc[ev]
					cp.MemDef[acc] = int32(trace.NoDef)
					if tr.MemDef[acc] == int32(trace.NoDef) {
						cp.MemDef[acc] = int32(ev - 1)
					}
					return a.name
				}
			}
			t.Fatal("no load")
			return ""
		}},
		{"access boundary", func(cp *trace.Trace, _ []bool) string {
			// Move one seed's access to another seed's address space
			// position; its operand values stay as recorded.
			for _, ev := range a.seeds {
				was, ok := model.Boundary(tr, ev)
				if !ok {
					continue
				}
				for _, s := range p.sections {
					for _, ev2 := range s.seeds {
						acc, acc2 := tr.Acc[ev], tr.Acc[ev2]
						cp.Addr[acc], cp.SP[acc], cp.VMAVer[acc] = tr.Addr[acc2], tr.SP[acc2], tr.VMAVer[acc2]
						if now, ok := model.Boundary(cp, ev); ok && now != was {
							return a.name
						}
						cp.Addr[acc], cp.SP[acc], cp.VMAVer[acc] = tr.Addr[acc], tr.SP[acc], tr.VMAVer[acc]
					}
				}
			}
			t.Fatal("no seed whose boundary could move")
			return ""
		}},
		{"ACE membership", func(_ *trace.Trace, mask []bool) string {
			mask[a.seeds[0]] = false
			return a.name
		}},
	}
	for _, e := range edits {
		cp, mask := cloneTrace(tr), slices.Clone(aceMask)
		name := e.edit(cp, mask)
		if got := sectionHashes(cp, mask); got[name] == base[name] {
			t.Errorf("%s: editing section %s left its slice hash at %s", e.name, name, got[name])
		}
	}

	// An edit inside b alone: an immediate operand of one of its events.
	cp := cloneTrace(tr)
	edited := false
	for _, e := range b.events {
		for _, d := range cp.OpDefsOf(int64(e)) {
			if d < 0 && !edited {
				cp.Imm[^d] ^= 1
				edited = true
			}
		}
	}
	if !edited {
		t.Fatalf("section %s has no immediate operand", b.name)
	}
	got := sectionHashes(cp, aceMask)
	if got[b.name] == base[b.name] {
		t.Errorf("editing section %s left its own slice hash unchanged", b.name)
	}
	if got[a.name] != base[a.name] {
		t.Errorf("editing section %s changed section %s's slice hash", b.name, a.name)
	}
}
