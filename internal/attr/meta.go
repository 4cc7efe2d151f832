package attr

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/trace"
)

// InstrMeta is the static context the drill-down views attach to an
// instruction ID: its IR text, enclosing function, dynamic execution
// count and mean DDG fan-out.
type InstrMeta struct {
	ID   int    `json:"id"`
	Func string `json:"func,omitempty"`
	// Text is the instruction's printed IR form.
	Text string `json:"text,omitempty"`
	// Dynamic is the number of dynamic instances in the golden trace.
	Dynamic int64 `json:"dynamic,omitempty"`
	// FanOut is the mean number of dynamic register reads of each value
	// this instruction defines — the DDG fan-out, a proxy for how far a
	// corrupted def propagates.
	FanOut float64 `json:"fan_out,omitempty"`
}

// Meta indexes InstrMeta by static instruction ID.
type Meta struct {
	byID map[int]*InstrMeta
}

// NewMeta walks the golden trace once, collecting per-instruction IR
// text, dynamic counts and DDG fan-out.
func NewMeta(tr *trace.Trace) *Meta {
	m := &Meta{byID: make(map[int]*InstrMeta)}
	// consumers[ev] counts dynamic register reads of the value defined at
	// event ev.
	consumers := make([]int64, tr.NumEvents())
	for _, d := range tr.OpDefs {
		if d >= 0 {
			consumers[d]++
		}
	}
	defs := make(map[int]int64)
	instrs := tr.Instrs()
	for i, id := range tr.InstrID {
		in := instrs[id]
		im := m.byID[in.ID]
		if im == nil {
			im = &InstrMeta{ID: in.ID, Text: ir.FormatInstr(in)}
			if fn := in.Func(); fn != nil {
				im.Func = fn.Name
			}
			m.byID[in.ID] = im
		}
		im.Dynamic++
		if trace.IsDef(in) {
			defs[in.ID]++
			im.FanOut += float64(consumers[i])
		}
	}
	for id, n := range defs {
		if n > 0 {
			m.byID[id].FanOut /= float64(n)
		}
	}
	return m
}

// Get returns the metadata for an instruction ID, or nil when unknown
// (including on a nil Meta).
func (m *Meta) Get(id int) *InstrMeta {
	if m == nil {
		return nil
	}
	return m.byID[id]
}

// Funcs returns the sorted names of functions with known instructions.
func (m *Meta) Funcs() []string {
	if m == nil {
		return nil
	}
	seen := make(map[string]bool)
	for _, im := range m.byID {
		if im.Func != "" {
			seen[im.Func] = true
		}
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
