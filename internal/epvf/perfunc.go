package epvf

import (
	"sort"

	"repro/internal/crash"
	"repro/internal/ir"
	"repro/internal/trace"
)

// FuncVuln aggregates vulnerability per function — the "vulnerability of
// different segments of the program" view that the original PVF work uses
// to target application-specific fault tolerance (§II-C).
type FuncVuln struct {
	Func *ir.Function
	// Dynamic is the number of dynamic instructions executed in the
	// function.
	Dynamic int64
	// TotalBits, ACEBits and CrashBits follow the module-level accounting
	// restricted to this function's instructions.
	TotalBits, ACEBits, CrashBits int64
}

// PVF returns the function's PVF.
func (v *FuncVuln) PVF() float64 {
	if v.TotalBits == 0 {
		return 0
	}
	return float64(v.ACEBits) / float64(v.TotalBits)
}

// EPVF returns the function's ePVF.
func (v *FuncVuln) EPVF() float64 {
	if v.TotalBits == 0 {
		return 0
	}
	return float64(v.ACEBits-v.CrashBits) / float64(v.TotalBits)
}

// PerFunction aggregates the analysis per function, ordered by descending
// non-crash ACE bit mass (the most SDC-prone functions first).
func (a *Analysis) PerFunction() []*FuncVuln {
	byFunc := make(map[*ir.Function]*FuncVuln)
	tr := a.Trace
	instrs := tr.Instrs()
	// byID caches each instruction's function entry; nil until the
	// instruction first executes, and for instructions outside any
	// function.
	byID := make([]*FuncVuln, len(instrs))
	for i, id := range tr.InstrID {
		in := instrs[id]
		v := byID[id]
		if v == nil {
			fn := in.Func()
			if fn == nil {
				continue
			}
			v = byFunc[fn]
			if v == nil {
				v = &FuncVuln{Func: fn}
				byFunc[fn] = v
			}
			byID[id] = v
		}
		v.Dynamic++
		if !trace.IsDef(in) {
			continue
		}
		w := int64(trace.DefWidth(in))
		v.TotalBits += w
		if a.ACEMask[i] {
			v.ACEBits += w
			v.CrashBits += int64(crash.PopCount(a.CrashResult.DefMask(int64(i))))
		}
	}
	out := make([]*FuncVuln, 0, len(byFunc))
	for _, v := range byFunc {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		mi := out[i].ACEBits - out[i].CrashBits
		mj := out[j].ACEBits - out[j].CrashBits
		if mi != mj {
			return mi > mj
		}
		return out[i].Func.Name < out[j].Func.Name
	})
	return out
}
