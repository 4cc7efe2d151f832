// Package protect implements the paper's §V case study: selective
// instruction duplication for SDC mitigation. Static instructions are
// ranked — by per-instruction ePVF (the paper's heuristic) or by execution
// frequency (the hot-path baseline) — and greedily selected under a
// performance-overhead budget. Each selected instruction's backward compute
// slice is duplicated and a comparison of the original and shadow values is
// inserted; a mismatch branches to a detector, which terminates the run
// with the Detected outcome instead of letting the fault become an SDC.
package protect

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/epvf"
	"repro/internal/ir"
)

// Eligible reports whether a static instruction can anchor a duplication
// region: it must define a register through a re-computable operation.
// Loads are eligible (the shadow re-reads the ECC-protected memory);
// allocas, calls, mallocs and phis are region inputs, not candidates.
func Eligible(in *ir.Instr) bool {
	switch {
	case in.Op.IsIntArith(), in.Op.IsFloatArith(), in.Op.IsConversion(),
		in.Op.IsMathUnary(), in.Op.IsMathBinary():
		return true
	case in.Op == ir.OpGEP, in.Op == ir.OpICmp, in.Op == ir.OpFCmp,
		in.Op == ir.OpSelect, in.Op == ir.OpLoad:
		return true
	default:
		return false
	}
}

// Ranking is a priority-ordered list of static instructions to protect.
type Ranking []*ir.Instr

// RankByEPVF orders eligible instructions by descending per-instruction
// ePVF (Eq. 3), breaking ties by dynamic execution count and then static
// ID for determinism.
func RankByEPVF(per map[*ir.Instr]*epvf.InstrVuln) Ranking {
	return rank(per, func(a, b *epvf.InstrVuln) bool {
		if a.EPVF() != b.EPVF() {
			return a.EPVF() > b.EPVF()
		}
		if a.Dynamic != b.Dynamic {
			return a.Dynamic > b.Dynamic
		}
		return a.Instr.ID < b.Instr.ID
	})
}

// RankByEPVFDensity orders eligible instructions by SDC-prone bit mass per
// unit of protection cost: (ACE bits − crash bits) / CostEstimate. This is
// the cost-aware refinement of the paper's ePVF ranking — same signal,
// normalized by the price of the shadow slice — and packs substantially
// more SDC coverage into a fixed overhead budget.
func RankByEPVFDensity(per map[*ir.Instr]*epvf.InstrVuln) Ranking {
	density := func(v *epvf.InstrVuln) float64 {
		c := CostEstimate(v.Instr, v.Dynamic)
		if c == 0 {
			return 0
		}
		return float64(v.ACEBits-v.CrashBits) / float64(c)
	}
	return rank(per, func(a, b *epvf.InstrVuln) bool {
		da, db := density(a), density(b)
		if da != db {
			return da > db
		}
		return a.Instr.ID < b.Instr.ID
	})
}

// RankByFrequency orders eligible instructions by descending dynamic
// execution count — the hot-path baseline of prior work the paper compares
// against.
func RankByFrequency(per map[*ir.Instr]*epvf.InstrVuln) Ranking {
	return rank(per, func(a, b *epvf.InstrVuln) bool {
		if a.Dynamic != b.Dynamic {
			return a.Dynamic > b.Dynamic
		}
		return a.Instr.ID < b.Instr.ID
	})
}

func rank(per map[*ir.Instr]*epvf.InstrVuln, less func(a, b *epvf.InstrVuln) bool) Ranking {
	vulns := make([]*epvf.InstrVuln, 0, len(per))
	for in, v := range per {
		if Eligible(in) && v.Dynamic > 0 {
			vulns = append(vulns, v)
		}
	}
	sort.Slice(vulns, func(i, j int) bool { return less(vulns[i], vulns[j]) })
	out := make(Ranking, len(vulns))
	for i, v := range vulns {
		out[i] = v.Instr
	}
	return out
}

// slice computes the static backward compute slice of anchor within its
// function: the chain of eligible value-producing instructions feeding it,
// in dependence order (producers first), stopping at loads' pointer
// sources... more precisely, the walk continues through pure computation
// (arithmetic, conversions, geps, selects) and through loads (which will be
// re-executed), and stops at allocas, calls, mallocs, phis, parameters,
// globals and constants, which become region inputs.
func slice(anchor *ir.Instr) []*ir.Instr {
	var order []*ir.Instr
	seen := map[*ir.Instr]bool{}
	var visit func(in *ir.Instr)
	visit = func(in *ir.Instr) {
		if seen[in] {
			return
		}
		seen[in] = true
		for _, a := range in.Args {
			if d, ok := a.(*ir.Instr); ok && Eligible(d) && d.Parent.Parent == in.Parent.Parent {
				visit(d)
			}
		}
		order = append(order, in)
	}
	visit(anchor)
	return order
}

// CostEstimate returns the dynamic-instruction cost of protecting anchor:
// the shadow slice plus the compare and branch (and, for float or pointer
// anchors, the two conversions feeding the bit-level compare), multiplied
// by the anchor's dynamic execution count. Shadow computation executes
// exactly when the anchor does, so the estimate is exact for the profiled
// input.
func CostEstimate(anchor *ir.Instr, dynCount int64) int64 {
	extra := int64(2) // compare + branch
	if anchor.Ty.IsFloat() || anchor.Ty.IsPtr() {
		extra += 2
	}
	return (int64(len(slice(anchor))) + extra) * dynCount
}

// Plan greedily selects instructions from the ranking whose estimated
// overhead fits within budget (a fraction, e.g. 0.24 for the paper's 24%
// bound) of the baseline dynamic instruction count. Instructions that no
// longer fit are skipped and the scan continues down the ranking, so the
// budget is packed rather than abandoned at the first oversized candidate.
func Plan(ranking Ranking, per map[*ir.Instr]*epvf.InstrVuln, baselineDyn int64, budget float64) []*ir.Instr {
	var selected []*ir.Instr
	var cost int64
	limit := int64(budget * float64(baselineDyn))
	for _, in := range ranking {
		c := CostEstimate(in, per[in].Dynamic)
		if cost+c > limit {
			continue
		}
		cost += c
		selected = append(selected, in)
	}
	return selected
}

// Apply instruments the module in place, protecting each selected
// instruction, and re-finalizes it. Selected instructions must belong to m.
// The module is re-verified after transformation.
func Apply(m *ir.Module, selected []*ir.Instr) error {
	for i, anchor := range selected {
		if anchor.Parent == nil || anchor.Parent.Parent == nil ||
			anchor.Parent.Parent.Parent != m {
			return fmt.Errorf("protect: instruction %d not in module %q", anchor.ID, m.Name)
		}
		if err := protectOne(anchor, i); err != nil {
			return fmt.Errorf("protect: instrumenting %s (id %d): %w", anchor.Op, anchor.ID, err)
		}
	}
	m.Finish()
	if err := ir.Verify(m); err != nil {
		return fmt.Errorf("protect: instrumented module invalid: %w", err)
	}
	return nil
}

// ApplyByID protects the instructions with the given static IDs — used to
// transfer a plan computed on one compile of a program to another compile
// with identical structure (e.g. a larger-input build of the same
// benchmark, as the §V evaluation requires).
func ApplyByID(m *ir.Module, ids []int) error {
	byID := make(map[int]*ir.Instr)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				byID[in.ID] = in
			}
		}
	}
	selected := make([]*ir.Instr, 0, len(ids))
	for _, id := range ids {
		in, ok := byID[id]
		if !ok {
			return fmt.Errorf("protect: no instruction with static ID %d", id)
		}
		selected = append(selected, in)
	}
	return Apply(m, selected)
}

// IDsOf extracts the static IDs of a selection (for ApplyByID).
func IDsOf(selected []*ir.Instr) []int {
	ids := make([]int, len(selected))
	for i, in := range selected {
		ids[i] = in.ID
	}
	return ids
}

// protectOne duplicates the backward compute slice of anchor and inserts
// the shadow comparison plus detector branch immediately after it.
func protectOne(anchor *ir.Instr, serial int) error {
	blk := anchor.Parent
	fn := blk.Parent
	pos := -1
	for i, in := range blk.Instrs {
		if in == anchor {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("anchor not found in its block")
	}

	// Clone the slice in dependence order, remapping operands.
	chain := slice(anchor)
	clones := make(map[*ir.Instr]*ir.Instr, len(chain))
	newInstrs := make([]*ir.Instr, 0, len(chain)+2)
	for ci, orig := range chain {
		c := &ir.Instr{
			Op:     orig.Op,
			Name:   fmt.Sprintf("shadow%d.%d", serial, ci),
			Ty:     orig.Ty,
			Pred:   orig.Pred,
			Elem:   orig.Elem,
			Callee: orig.Callee,
			Parent: blk,
		}
		c.Args = make([]ir.Value, len(orig.Args))
		for ai, a := range orig.Args {
			if d, ok := a.(*ir.Instr); ok {
				if cd, cloned := clones[d]; cloned {
					c.Args[ai] = cd
					continue
				}
			}
			c.Args[ai] = a
		}
		clones[orig] = c
		newInstrs = append(newInstrs, c)
	}
	shadow := clones[anchor]

	// Build the comparison: original != shadow.
	var cmp *ir.Instr
	name := "chk" + strconv.Itoa(serial)
	switch {
	case anchor.Ty.IsFloat():
		// Compare bit patterns, not float values: NaN != NaN would
		// false-positive under fcmp.
		w := ir.IntType(anchor.Ty.Bits)
		b1 := &ir.Instr{Op: ir.OpBitcast, Name: name + ".b1", Ty: w, Args: []ir.Value{anchor}, Parent: blk}
		b2 := &ir.Instr{Op: ir.OpBitcast, Name: name + ".b2", Ty: w, Args: []ir.Value{shadow}, Parent: blk}
		cmp = &ir.Instr{Op: ir.OpICmp, Name: name, Ty: ir.I1, Pred: ir.INE, Args: []ir.Value{b1, b2}, Parent: blk}
		newInstrs = append(newInstrs, b1, b2)
	case anchor.Ty.IsPtr():
		p1 := &ir.Instr{Op: ir.OpPtrToInt, Name: name + ".p1", Ty: ir.I64, Args: []ir.Value{anchor}, Parent: blk}
		p2 := &ir.Instr{Op: ir.OpPtrToInt, Name: name + ".p2", Ty: ir.I64, Args: []ir.Value{shadow}, Parent: blk}
		cmp = &ir.Instr{Op: ir.OpICmp, Name: name, Ty: ir.I1, Pred: ir.INE, Args: []ir.Value{p1, p2}, Parent: blk}
		newInstrs = append(newInstrs, p1, p2)
	default:
		cmp = &ir.Instr{Op: ir.OpICmp, Name: name, Ty: ir.I1, Pred: ir.INE, Args: []ir.Value{anchor, shadow}, Parent: blk}
	}
	newInstrs = append(newInstrs, cmp)

	// Split the block after the anchor: cont carries the rest.
	cont := &ir.Block{Name: blk.Name + ".cont" + strconv.Itoa(serial), Parent: fn}
	cont.Instrs = append(cont.Instrs, blk.Instrs[pos+1:]...)
	for _, in := range cont.Instrs {
		in.Parent = cont
	}

	det := &ir.Block{Name: blk.Name + ".det" + strconv.Itoa(serial), Parent: fn}
	det.Instrs = []*ir.Instr{
		{Op: ir.OpDetect, Ty: ir.Void, Parent: det},
		{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{cont}, Parent: det},
	}

	condbr := &ir.Instr{Op: ir.OpCondBr, Ty: ir.Void, Args: []ir.Value{cmp},
		Blocks: []*ir.Block{det, cont}, Parent: blk}
	blk.Instrs = append(blk.Instrs[:pos+1:pos+1], append(newInstrs, condbr)...)

	// Successor phis that named blk as a predecessor must now name cont,
	// which holds the original terminator.
	if term := cont.Terminator(); term != nil {
		for _, succ := range term.Blocks {
			for _, in := range succ.Instrs {
				if in.Op != ir.OpPhi {
					break
				}
				for pi, from := range in.PhiIn {
					if from == blk {
						in.PhiIn[pi] = cont
					}
				}
			}
		}
	}

	fn.Blocks = append(fn.Blocks, det, cont)
	return nil
}
