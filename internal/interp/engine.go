// Engine API: the exported surface an alternative execution engine (the
// bytecode VM in internal/vm) needs to stay bit-identical to this walker.
// Two algorithms are contractual and must be shared, not re-implemented:
// global placement (segment layout determines every global address and
// therefore every pointer value in a run) and frame layout (alloca offsets
// and frame sizes determine stack addresses and the savedSP/base values
// that state comparison inspects).
package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Normalize applies the interpreter's configuration defaults (layout, hang
// budget, alignment policy, entry name) and resolves the entry function.
// A recording run's budget is clamped to trace.MaxBudget.
// Engines call it so an empty Config means the same thing everywhere.
func Normalize(m *ir.Module, cfg Config) (Config, *ir.Function, error) {
	if cfg.Layout == (mem.Layout{}) {
		cfg.Layout = mem.DefaultLayout()
	}
	if cfg.MaxDynInstrs == 0 {
		cfg.MaxDynInstrs = DefaultMaxDynInstrs
	}
	if cfg.Record {
		cfg.MaxDynInstrs = min(cfg.MaxDynInstrs, trace.MaxBudget(m))
	}
	if cfg.Align == 0 {
		cfg.Align = AlignFourByte
	}
	fn := m.Func(Entry)
	if fn == nil {
		return cfg, nil, fmt.Errorf("interp: module %q has no function %q", m.Name, Entry)
	}
	if len(fn.Params) != 0 {
		return cfg, nil, fmt.Errorf("interp: entry %q must take no parameters", Entry)
	}
	return cfg, fn, nil
}

// LoadGlobals places and initializes the module's globals in as, returning
// each global's address. The placement algorithm is part of the cross-engine
// contract: any engine must produce exactly these addresses for a given
// layout, or pointer values (and therefore whole traces) diverge.
func LoadGlobals(m *ir.Module, as *mem.AddressSpace) (map[*ir.Global]uint64, error) {
	globals := make(map[*ir.Global]uint64, len(m.Globals))
	var roSize, rwSize uint64
	place := func(g *ir.Global, base, cursor uint64) uint64 {
		align := uint64(g.Elem.Align())
		cursor = (cursor + align - 1) &^ (align - 1)
		globals[g] = base + cursor
		return cursor + uint64(g.ByteSize())
	}
	l := as.Layout()
	for _, g := range m.Globals {
		if g.ReadOnly {
			roSize = place(g, l.RODataBase, roSize)
		} else {
			rwSize = place(g, l.DataBase, rwSize)
		}
	}
	as.EnsureSegmentSize(mem.SegROData, roSize+mem.PageSize)
	as.EnsureSegmentSize(mem.SegData, rwSize+mem.PageSize)
	for _, g := range m.Globals {
		addr := globals[g]
		esz := g.Elem.Size()
		for i, v := range g.Init {
			as.WriteUint(addr+uint64(i)*uint64(esz), esz, v)
		}
	}
	return globals, nil
}

// ComputeFrameLayout returns fn's stack-frame size and per-alloca offsets.
// Shared with alternative engines: alloca addresses are base+offset, and
// frame sizes feed savedSP/base, both of which state equality compares.
func ComputeFrameLayout(fn *ir.Function) (size uint64, offsets map[*ir.Instr]uint64) {
	offsets = make(map[*ir.Instr]uint64)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpAlloca {
				continue
			}
			align := uint64(in.Elem.Align())
			size = (size + align - 1) &^ (align - 1)
			offsets[in] = size
			size += uint64(in.Elem.Size())
		}
	}
	size = (size + 15) &^ 15
	if size == 0 {
		size = 16 // return-address slot: every call consumes stack
	}
	return size, offsets
}

// MathUnaryOp evaluates a unary libm intrinsic exactly as the walker does.
func MathUnaryOp(in *ir.Instr, a uint64) uint64 { return mathUnary(in, a) }

// MathBinaryOp evaluates a binary libm intrinsic exactly as the walker does.
func MathBinaryOp(in *ir.Instr, a, b uint64) uint64 { return mathBinary(in, a, b) }
