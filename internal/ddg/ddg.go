// Package ddg builds the dynamic dependence graph (DDG) of a recorded
// execution trace (paper §III-A). Vertices are dynamic value definitions —
// one per value-producing trace event — plus memory versions; edges connect
// each instruction's operand uses to the events that defined them, and each
// load to the store that produced the loaded bytes. Address registers are
// connected to the memory nodes they address through the pointer operand of
// the load/store, which plays the role of the paper's "virtual edge".
package ddg

import (
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Graph is a DDG view over a recorded trace. Construction is O(1): the
// def-use links are already present in the trace's columns; Graph adds
// the ACE-graph traversal and node accounting.
type Graph struct {
	tr *trace.Trace
}

// New returns a DDG over tr.
func New(tr *trace.Trace) *Graph { return &Graph{tr: tr} }

// Trace returns the underlying trace.
func (g *Graph) Trace() *trace.Trace { return g.tr }

// NumEvents returns the number of dynamic instructions (graph construction
// events).
func (g *Graph) NumEvents() int64 { return g.tr.NumEvents() }

// AppendPreds appends the DDG predecessors of event ev to dst: the defining
// events of each operand, and — for loads — the store that produced the
// loaded value.
func (g *Graph) AppendPreds(dst []int64, ev int64) []int64 {
	for _, d := range g.tr.OpDefsOf(ev) {
		if d != trace.NoDef {
			dst = append(dst, d)
		}
	}
	if d := g.tr.MemDefOf(ev); d != trace.NoDef {
		dst = append(dst, d)
	}
	return dst
}

// OutputDefs returns the defining events of the program outputs — the roots
// of the ACE graph.
func (g *Graph) OutputDefs() []int64 {
	var roots []int64
	for _, o := range g.tr.Outputs {
		if o.Def != trace.NoDef {
			roots = append(roots, o.Def)
		}
		// The output event itself is ACE: its operand read feeds the
		// program's visible result.
		roots = append(roots, o.EventIdx)
	}
	return roots
}

// BranchRoots returns every conditional-branch event. The ePVF methodology
// conservatively treats all branches as SDC-prone if flipped (§VI-B,
// "Y-branches"), so branch conditions and their backward slices count as
// ACE even when they do not feed the output dataflow.
func (g *Graph) BranchRoots() []int64 {
	var roots []int64
	instrs := g.tr.Instrs()
	for i, id := range g.tr.InstrID {
		if instrs[id].Op == ir.OpCondBr {
			roots = append(roots, int64(i))
		}
	}
	return roots
}

// ACEMask computes the ACE graph: the set of events backward-reachable from
// the program outputs and from all conditional branches. mask[i] reports
// whether event i is ACE.
func (g *Graph) ACEMask() []bool {
	roots := g.OutputDefs()
	roots = append(roots, g.BranchRoots()...)
	return g.aceFromRoots(roots)
}

// ACEMaskOutputsOnly computes the ACE graph rooted at program outputs only,
// without the conservative branch roots — the ablation that quantifies how
// much of the vulnerability estimate comes from control flow.
func (g *Graph) ACEMaskOutputsOnly() []bool {
	return g.aceFromRoots(g.OutputDefs())
}

// PartialACEMask computes the ACE graph rooted at only the first frac
// (0 < frac <= 1) of the output nodes in trace order, plus the branch roots
// in the corresponding trace prefix — the ACE-graph sampling optimization
// of §IV-E. It returns the mask and the prefix length (the event index just
// past the last sampled output), so callers can normalize the partial
// estimate by the prefix's own bit population.
func (g *Graph) PartialACEMask(frac float64) ([]bool, int64) {
	outs := g.tr.Outputs
	n := int(float64(len(outs)) * frac)
	if n < 1 {
		n = 1
	}
	if n > len(outs) {
		n = len(outs)
	}
	prefixEnd := outs[n-1].EventIdx + 1
	var roots []int64
	for _, o := range outs[:n] {
		if o.Def != trace.NoDef {
			roots = append(roots, o.Def)
		}
		roots = append(roots, o.EventIdx)
	}
	for _, br := range g.BranchRoots() {
		if br < prefixEnd {
			roots = append(roots, br)
		}
	}
	return g.aceFromRoots(roots), prefixEnd
}

// ACEMaskFromRoots computes backward reachability from an arbitrary root
// set (used by the sampling-variance estimator, which roots subsamples of
// output nodes).
func (g *Graph) ACEMaskFromRoots(roots []int64) []bool {
	return g.aceFromRoots(roots)
}

func (g *Graph) aceFromRoots(roots []int64) []bool {
	mask := make([]bool, g.tr.NumEvents())
	stack := make([]int64, 0, len(roots))
	for _, r := range roots {
		if r >= 0 && !mask[r] {
			mask[r] = true
			stack = append(stack, r)
		}
	}
	var preds []int64
	for len(stack) > 0 {
		ev := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		preds = g.AppendPreds(preds[:0], ev)
		for _, p := range preds {
			if !mask[p] {
				mask[p] = true
				stack = append(stack, p)
			}
		}
	}
	if r := obs.Default(); r != nil {
		r.Counter("epvf_ddg_ace_builds_total").Inc()
		r.Counter("epvf_ddg_events_total").Add(g.tr.NumEvents())
		r.Counter("epvf_ddg_ace_nodes_total").Add(CountMask(mask))
	}
	return mask
}

// CountMask returns the number of set entries in a mask.
func CountMask(mask []bool) int64 {
	var n int64
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// Stats summarizes DDG composition for reporting (Table V).
type Stats struct {
	// Events is the number of dynamic instructions.
	Events int64
	// RegisterDefs is the number of value-producing events (register
	// vertices).
	RegisterDefs int64
	// MemNodes is the number of distinct memory versions (store events plus
	// loads of initial memory).
	MemNodes int64
	// MemAccesses is the number of load/store events.
	MemAccesses int64
}

// ComputeStats walks the trace once and tallies node classes.
func (g *Graph) ComputeStats() Stats {
	var s Stats
	tr := g.tr
	s.Events = tr.NumEvents()
	instrs := tr.Instrs()
	for i, id := range tr.InstrID {
		in := instrs[id]
		if !in.Type().IsVoid() {
			s.RegisterDefs++
		}
		switch in.Op {
		case ir.OpStore:
			s.MemNodes++
			s.MemAccesses++
		case ir.OpLoad:
			s.MemAccesses++
			if tr.MemDefOf(int64(i)) == trace.NoDef {
				s.MemNodes++ // initial-memory version
			}
		}
	}
	return s
}
