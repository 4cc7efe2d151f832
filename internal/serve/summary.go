// Package serve is the always-on analysis service: a long-lived daemon
// that accepts module IR over HTTP, keys every stage of the ePVF
// pipeline by content hash, and serves cached results — analysis
// summaries, golden traces, campaign logs, attribution snapshots —
// from a two-tier internal/cache store. A Client gives the CLIs
// (cmd/epvf, cmd/campaign) the same answers a local run would compute,
// byte-identical, because both sides render through the Summary type
// defined here.
package serve

import (
	"fmt"
	"sort"

	"repro/internal/crash"
	"repro/internal/epvf"
	"repro/internal/report"
)

// Summary is the cacheable result of one ePVF analysis. It stores the
// raw integer numerators and denominators (never pre-divided floats),
// so every derived metric — PVF, ePVF, crash rate — is recomputed with
// the exact float operations internal/epvf uses. That makes rendering
// deterministic: a daemon-served summary and a fresh local analysis
// print byte-identical reports.
type Summary struct {
	// Module is the module name printed in the report title.
	Module string `json:"module"`
	// DynInstrs is the dynamic IR instruction count of the golden run.
	DynInstrs int64 `json:"dyn_instrs"`
	// RegisterDefs and MemAccesses are the DDG node-class tallies.
	RegisterDefs int64 `json:"register_defs"`
	MemAccesses  int64 `json:"mem_accesses"`
	// ACENodes, TotalBits, ACEBits and CrashBits mirror epvf.Analysis.
	ACENodes  int64 `json:"ace_nodes"`
	TotalBits int64 `json:"total_bits"`
	ACEBits   int64 `json:"ace_bits"`
	CrashBits int64 `json:"crash_bits"`
	// GraphBuildSeconds and ModelsSeconds record the original
	// computation's cost (Figure 10's split). A cached summary reports
	// the cost of the run that filled the cache, which is why the
	// rendered timing rows are gated behind RenderOptions.Timing.
	GraphBuildSeconds float64 `json:"graph_build_seconds"`
	ModelsSeconds     float64 `json:"models_seconds"`
	// Classes is the bit-class census behind -classes.
	Classes ClassCensus `json:"classes"`
	// PerFunc holds the per-function breakdown, in render order.
	PerFunc []FuncRow `json:"per_func,omitempty"`
	// PerInstr holds every static instruction with counted bits, sorted
	// by descending ePVF (ties by ID); renderers truncate to N.
	PerInstr []InstrRow `json:"per_instr,omitempty"`
}

// ClassCensus splits every dynamic definition's bits into the paper's
// three predicted ranges.
type ClassCensus struct {
	CrashBits int64 `json:"crash_bits"`
	ACEBits   int64 `json:"ace_bits"`
	UnACEBits int64 `json:"unace_bits"`
}

// FuncRow is one per-function vulnerability row.
type FuncRow struct {
	Name      string `json:"name"`
	Dynamic   int64  `json:"dynamic"`
	TotalBits int64  `json:"total_bits"`
	ACEBits   int64  `json:"ace_bits"`
	CrashBits int64  `json:"crash_bits"`
}

// InstrRow is one per-instruction vulnerability row.
type InstrRow struct {
	ID        int    `json:"id"`
	Op        string `json:"op"`
	Dynamic   int64  `json:"dynamic"`
	TotalBits int64  `json:"total_bits"`
	ACEBits   int64  `json:"ace_bits"`
	CrashBits int64  `json:"crash_bits"`
}

// Summarize flattens an analysis into its cacheable summary. dynInstrs
// is the golden run's dynamic instruction count (golden.DynInstrs for a
// profiled module, trace.NumEvents() for a loaded trace — identical by
// construction).
func Summarize(moduleName string, a *epvf.Analysis, dynInstrs int64) *Summary {
	st := a.Graph.ComputeStats()
	s := &Summary{
		Module:            moduleName,
		DynInstrs:         dynInstrs,
		RegisterDefs:      st.RegisterDefs,
		MemAccesses:       st.MemAccesses,
		ACENodes:          a.ACENodes,
		TotalBits:         a.TotalBits,
		ACEBits:           a.ACEBits,
		CrashBits:         a.CrashResult.CrashBitCount,
		GraphBuildSeconds: a.Timing.GraphBuild.Seconds(),
		ModelsSeconds:     a.Timing.Models.Seconds(),
	}
	for _, d := range a.DefClasses() {
		nc := int64(crash.PopCount(d.CrashMask))
		s.Classes.CrashBits += nc
		if d.ACE {
			s.Classes.ACEBits += int64(d.Width) - nc
		} else {
			s.Classes.UnACEBits += int64(d.Width) - nc
		}
	}
	for _, v := range a.PerFunction() {
		s.PerFunc = append(s.PerFunc, FuncRow{
			Name: v.Func.Name, Dynamic: v.Dynamic,
			TotalBits: v.TotalBits, ACEBits: v.ACEBits, CrashBits: v.CrashBits,
		})
	}
	for _, v := range a.PerInstruction() {
		if v.TotalBits == 0 {
			continue
		}
		s.PerInstr = append(s.PerInstr, InstrRow{
			ID: v.Instr.ID, Op: v.Instr.Op.String(), Dynamic: v.Dynamic,
			TotalBits: v.TotalBits, ACEBits: v.ACEBits, CrashBits: v.CrashBits,
		})
	}
	sort.Slice(s.PerInstr, func(i, j int) bool {
		if e1, e2 := s.PerInstr[i].EPVF(), s.PerInstr[j].EPVF(); e1 != e2 {
			return e1 > e2
		}
		return s.PerInstr[i].ID < s.PerInstr[j].ID
	})
	return s
}

// ratio mirrors the guarded divisions of internal/epvf exactly.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// PVF returns the classic Program Vulnerability Factor (Eq. 1).
func (s *Summary) PVF() float64 { return ratio(s.ACEBits, s.TotalBits) }

// EPVF returns the enhanced PVF (Eq. 2).
func (s *Summary) EPVF() float64 { return ratio(s.ACEBits-s.CrashBits, s.TotalBits) }

// CrashRate returns the modelled crash-rate estimate (§IV-C).
func (s *Summary) CrashRate() float64 { return ratio(s.CrashBits, s.TotalBits) }

// VulnerableBitReduction returns (PVF - ePVF) / PVF.
func (s *Summary) VulnerableBitReduction() float64 {
	p := s.PVF()
	if p == 0 {
		return 0
	}
	return (p - s.EPVF()) / p
}

// PVF and EPVF on rows mirror epvf.FuncVuln / epvf.InstrVuln.

func (r FuncRow) PVF() float64   { return ratio(r.ACEBits, r.TotalBits) }
func (r FuncRow) EPVF() float64  { return ratio(r.ACEBits-r.CrashBits, r.TotalBits) }
func (r InstrRow) PVF() float64  { return ratio(r.ACEBits, r.TotalBits) }
func (r InstrRow) EPVF() float64 { return ratio(r.ACEBits-r.CrashBits, r.TotalBits) }

// RenderOptions selects the report sections, mirroring cmd/epvf's
// flags.
type RenderOptions struct {
	// Timing includes the graph-construction and model time rows.
	// Disable it to compare daemon and local output byte-for-byte (a
	// cached summary reports the filling run's cost, not this one's).
	Timing bool
	// Classes appends the bit-class census table.
	Classes bool
	// PerFunc appends the per-function vulnerability table.
	PerFunc bool
	// PerInstr > 0 appends the N most SDC-prone instructions.
	PerInstr int
}

// Render prints the full report for the selected sections.
func (s *Summary) Render(opts RenderOptions) string {
	out := s.RenderMain(opts.Timing)
	if opts.Classes {
		out += s.RenderClasses()
	}
	if opts.PerFunc {
		out += s.RenderPerFunc()
	}
	if opts.PerInstr > 0 {
		out += s.RenderPerInstr(opts.PerInstr)
	}
	return out
}

// RenderMain prints the headline metric table.
func (s *Summary) RenderMain(timing bool) string {
	t := report.NewTable(fmt.Sprintf("ePVF analysis: %s", s.Module), "Metric", "Value")
	t.AddRow("dynamic IR instructions", s.DynInstrs)
	t.AddRow("register definitions", s.RegisterDefs)
	t.AddRow("memory accesses", s.MemAccesses)
	t.AddRow("ACE-graph nodes", s.ACENodes)
	t.AddRow("total register bits", s.TotalBits)
	t.AddRow("ACE bits", s.ACEBits)
	t.AddRow("crash-causing bits", s.CrashBits)
	t.AddRow("PVF", s.PVF())
	t.AddRow("ePVF", s.EPVF())
	t.AddRow("estimated crash rate", report.Percent(s.CrashRate()))
	t.AddRow("vulnerable-bit reduction vs PVF", report.Percent(s.VulnerableBitReduction()))
	if timing {
		t.AddRow("graph construction time", fmt.Sprintf("%.3fs", s.GraphBuildSeconds))
		t.AddRow("crash+propagation model time", fmt.Sprintf("%.3fs", s.ModelsSeconds))
	}
	return t.String()
}

// RenderClasses prints the bit-class census (-classes).
func (s *Summary) RenderClasses() string {
	c := s.Classes
	total := c.CrashBits + c.ACEBits + c.UnACEBits
	ct := report.NewTable("\nBit-class census (dynamic definitions)",
		"Class", "Bits", "Share")
	ct.AddRow("crash-predicted", c.CrashBits, report.Percent(ratio(c.CrashBits, total)))
	ct.AddRow("ACE (SDC-predicted)", c.ACEBits, report.Percent(ratio(c.ACEBits, total)))
	ct.AddRow("unACE (benign-predicted)", c.UnACEBits, report.Percent(ratio(c.UnACEBits, total)))
	ct.AddRow("total", total, report.Percent(1))
	return ct.String()
}

// RenderPerFunc prints the per-function vulnerability table (-per-func).
func (s *Summary) RenderPerFunc() string {
	ft := report.NewTable("\nPer-function vulnerability",
		"Function", "Dyn instrs", "PVF", "ePVF")
	for _, v := range s.PerFunc {
		ft.AddRow("@"+v.Name, v.Dynamic, v.PVF(), v.EPVF())
	}
	return ft.String()
}

// RenderPerInstr prints the top-n instruction table (-per-instr).
func (s *Summary) RenderPerInstr(n int) string {
	rows := s.PerInstr
	if len(rows) > n {
		rows = rows[:n]
	}
	pt := report.NewTable("\nMost SDC-prone static instructions (by ePVF)",
		"ID", "Opcode", "Dynamic", "PVF", "ePVF")
	for _, v := range rows {
		pt.AddRow(v.ID, v.Op, v.Dynamic, v.PVF(), v.EPVF())
	}
	return pt.String()
}
