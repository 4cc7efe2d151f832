package ddg

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// DotOptions controls DOT rendering.
type DotOptions struct {
	// MaxEvents caps the rendered window (graphs beyond a few thousand
	// nodes are unreadable); zero means 500.
	MaxEvents int64
	// ACEMask, when non-nil, colors ACE events.
	ACEMask []bool
	// CrashDefs, when non-nil, returns the predicted crash-bit mask of the
	// register defined at an event; registers with a non-zero mask are
	// marked.
	CrashDefs func(ev int64) uint64
}

// Dot renders the first events of the DDG in Graphviz DOT form: one node
// per dynamic instruction, solid edges for register dataflow, dashed edges
// for the load-to-store memory dependence. Intended for inspecting small
// traces and teaching material, not full benchmark runs.
func (g *Graph) Dot(opts DotOptions) string {
	limit := opts.MaxEvents
	if limit <= 0 {
		limit = 500
	}
	if limit > g.tr.NumEvents() {
		limit = g.tr.NumEvents()
	}
	var sb strings.Builder
	sb.WriteString("digraph ddg {\n  rankdir=BT;\n  node [shape=box, fontname=\"monospace\"];\n")
	for i := int64(0); i < limit; i++ {
		e := g.tr.Event(i)
		label := fmt.Sprintf("%d: %s", i, e.Instr.Op)
		if e.IsMemAccess() {
			label += fmt.Sprintf("\\n@%#x", e.Addr)
		}
		attrs := ""
		if opts.ACEMask != nil && int(i) < len(opts.ACEMask) && opts.ACEMask[i] {
			attrs = ", style=filled, fillcolor=lightyellow"
		}
		if opts.CrashDefs != nil && opts.CrashDefs(i) != 0 {
			attrs = ", style=filled, fillcolor=lightcoral"
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%s\"%s];\n", i, label, attrs)
		for _, d := range e.OpDefs {
			if d != trace.NoDef && d < limit {
				fmt.Fprintf(&sb, "  n%d -> n%d;\n", i, d)
			}
		}
		if e.MemDef != trace.NoDef && e.MemDef < limit {
			fmt.Fprintf(&sb, "  n%d -> n%d [style=dashed];\n", i, e.MemDef)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
