package rangeprop

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/crash"
	"repro/internal/ddg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

// The map-based propagation walk below is the reference the dense Result
// is checked against: one visited map and one worklist per access, a fresh
// item slice per inversion, masks keyed by use and by def.

type oracleResult struct {
	crashBits                                         map[trace.Use]uint64
	defCrashBits                                      map[int64]uint64
	crashBitCount, useCrashBitCount, accessesAnalyzed int64
}

func oracleAnalyze(tr *trace.Trace, aceMask []bool, cfg Config, touch func(ev int64)) *oracleResult {
	if cfg.Model == nil {
		cfg.Model = crash.NewModel()
	}
	maxDepth := cfg.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	res := &oracleResult{crashBits: make(map[trace.Use]uint64), defCrashBits: make(map[int64]uint64)}
	for i := range tr.NumEvents() {
		if !aceMask[i] || !tr.IsMemAccess(i) {
			continue
		}
		ev := int64(i)
		bound, ok := cfg.Model.Boundary(tr, ev)
		if !ok {
			if touch != nil {
				touch(ev)
			}
			continue
		}
		res.accessesAnalyzed++
		ptrOp := 0
		if tr.Instr(i).Op == ir.OpStore {
			ptrOp = 1
		}
		oracleCrashCalc(tr, res, cfg, ev, ptrOp, bound, maxDepth, touch)
	}
	for u, m := range res.crashBits {
		res.useCrashBitCount += int64(crash.PopCount(m))
		e := tr.Event(u.Event)
		if u.Op < len(e.OpDefs) && e.OpDefs[u.Op] != trace.NoDef {
			res.defCrashBits[e.OpDefs[u.Op]] |= m
		}
	}
	for _, m := range res.defCrashBits {
		res.crashBitCount += int64(crash.PopCount(m))
	}
	return res
}

func oracleCrashCalc(tr *trace.Trace, res *oracleResult, cfg Config, accessEv int64, ptrOp int, bound crash.Bound, maxDepth int, touch func(ev int64)) {
	visited := make(map[int64]bool)
	work := []item{{ev: accessEv, op: ptrOp, r: bound, direct: true}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]

		if touch != nil {
			touch(it.ev)
		}
		e := tr.Event(it.ev)
		v := e.Ops[it.op]
		width := trace.OperandWidth(e.Instr, it.op)
		if trace.InjectableOperand(e.Instr, it.op) || e.Instr.Op == ir.OpPhi {
			var mask uint64
			if it.direct && cfg.ExactAddress {
				mask = cfg.Model.MaskExact(tr, it.ev, v, width)
			} else {
				mask = crash.MaskFromBound(v, width, it.r)
			}
			if mask != 0 {
				res.crashBits[trace.Use{Event: it.ev, Op: it.op}] |= mask
			}
		}

		def := e.OpDefs[it.op]
		if def == trace.NoDef || visited[def] {
			continue
		}
		if maxDepth > 0 && it.depth >= maxDepth {
			continue
		}
		visited[def] = true
		if touch != nil {
			touch(def)
		}
		for _, nxt := range oracleInvert(tr, def, it.r) {
			nxt.depth = it.depth + 1
			work = append(work, nxt)
		}
	}
}

func oracleInvert(tr *trace.Trace, def int64, r crash.Bound) []item {
	e := tr.Event(def)
	in := e.Instr
	mk := func(op int, b crash.Bound) item { return item{ev: def, op: op, r: b} }
	signedOp := func(op int) int64 {
		return ir.SignExtend(e.Ops[op], trace.OperandWidth(in, op))
	}
	switch in.Op {
	case ir.OpAdd:
		return []item{mk(0, shift(r, -signedOp(1))), mk(1, shift(r, -signedOp(0)))}
	case ir.OpSub:
		return []item{
			mk(0, shift(r, signedOp(1))),
			mk(1, crash.Bound{Lo: satSub(signedOp(0), r.Hi), Hi: satSub(signedOp(0), r.Lo)}),
		}
	case ir.OpMul:
		var out []item
		if b := divRange(r, signedOp(1)); !b.IsUnconstrained() {
			out = append(out, mk(0, b))
		}
		if b := divRange(r, signedOp(0)); !b.IsUnconstrained() {
			out = append(out, mk(1, b))
		}
		return out
	case ir.OpSDiv, ir.OpUDiv:
		c := signedOp(1)
		if c > 0 && r.Lo >= 0 {
			return []item{mk(0, crash.Bound{Lo: satMul(r.Lo, c), Hi: satAdd(satMul(r.Hi, c), c-1)})}
		}
		return nil
	case ir.OpShl:
		k := signedOp(1)
		if k >= 0 && k < 63 {
			if b := divRange(r, int64(1)<<uint(k)); !b.IsUnconstrained() {
				return []item{mk(0, b)}
			}
		}
		return nil
	case ir.OpGEP:
		stride := in.Elem.Size()
		base := signedOp(0)
		idx := signedOp(1)
		out := []item{mk(0, shift(r, -satMul(stride, idx)))}
		if stride > 0 {
			lo := ceilDiv(satSub(r.Lo, base), stride)
			hi := floorDiv(satSub(r.Hi, base), stride)
			out = append(out, mk(1, crash.Bound{Lo: lo, Hi: hi}))
		}
		return out
	case ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr:
		return []item{mk(0, r)}
	case ir.OpZExt:
		w := in.Args[0].Type().BitWidth()
		return []item{mk(0, intersect(r, crash.Bound{Lo: 0, Hi: maxOfWidthU(w)}))}
	case ir.OpSExt:
		w := in.Args[0].Type().BitWidth()
		return []item{mk(0, intersect(r, widthBound(w)))}
	case ir.OpLoad:
		if e.MemDef != trace.NoDef {
			return []item{{ev: e.MemDef, op: 0, r: r}}
		}
		return nil
	case ir.OpPhi:
		return []item{mk(0, r)}
	case ir.OpSelect:
		if e.Ops[0]&1 != 0 {
			return []item{mk(1, r)}
		}
		return []item{mk(2, r)}
	default:
		return nil
	}
}

// oracleNames lists the traces the oracle comparison runs over: every
// built-in kernel at scale 1 and four randomized programs.
func oracleNames() []string {
	var names []string
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return append(names, "random0", "random1", "random2", "random3")
}

// oracleTrace records the golden trace of a built-in kernel, or of the
// randomized program drawn from seed i for the name "random<i>".
func oracleTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	var m *ir.Module
	if b, ok := bench.Get(name); ok {
		m = b.MustModule(1)
	} else {
		var n int
		if _, err := fmt.Sscanf(name, "random%d", &n); err != nil {
			t.Fatalf("unknown oracle trace %q", name)
		}
		src := bench.RandomProgram(rand.New(rand.NewSource(int64(n))))
		var err error
		if m, err = lang.Compile("prog", src); err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
	}
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.Trace
}

// assertMatchesOracle checks every per-use mask, per-def mask and tally of
// got against the reference walk's.
func assertMatchesOracle(t *testing.T, label string, want *oracleResult, got *Result) {
	t.Helper()
	if want.crashBitCount != got.CrashBitCount || want.useCrashBitCount != got.UseCrashBitCount ||
		want.accessesAnalyzed != got.AccessesAnalyzed {
		t.Fatalf("%s: tallies differ: def %d/%d use %d/%d accesses %d/%d", label,
			want.crashBitCount, got.CrashBitCount, want.useCrashBitCount, got.UseCrashBitCount,
			want.accessesAnalyzed, got.AccessesAnalyzed)
	}
	// EachUse and EachDef must visit exactly the reference's non-zero
	// masks, in ascending order; the getters must return every mask.
	uses, prev := 0, trace.Use{Event: -1}
	got.EachUse(func(u trace.Use, m uint64) {
		if u.Event < prev.Event || (u.Event == prev.Event && u.Op <= prev.Op) {
			t.Fatalf("%s: EachUse visited %v after %v", label, u, prev)
		}
		if want.crashBits[u] != m {
			t.Fatalf("%s: use %v mask %#x, want %#x", label, u, m, want.crashBits[u])
		}
		uses, prev = uses+1, u
	})
	if uses != len(want.crashBits) {
		t.Fatalf("%s: %d non-zero use masks, want %d", label, uses, len(want.crashBits))
	}
	defs, prevDef := 0, int64(-1)
	got.EachDef(func(ev int64, m uint64) {
		if ev <= prevDef {
			t.Fatalf("%s: EachDef visited %d after %d", label, ev, prevDef)
		}
		if want.defCrashBits[ev] != m {
			t.Fatalf("%s: def %d mask %#x, want %#x", label, ev, m, want.defCrashBits[ev])
		}
		defs, prevDef = defs+1, ev
	})
	wantDefs := 0
	for _, m := range want.defCrashBits {
		if m != 0 {
			wantDefs++
		}
	}
	if defs != wantDefs {
		t.Fatalf("%s: %d non-zero def masks, want %d", label, defs, wantDefs)
	}
	for u, m := range want.crashBits {
		if got.UseMask(u) != m {
			t.Fatalf("%s: UseMask(%v) = %#x, want %#x", label, u, got.UseMask(u), m)
		}
	}
	for ev, m := range want.defCrashBits {
		if got.DefMask(ev) != m {
			t.Fatalf("%s: DefMask(%d) = %#x, want %#x", label, ev, got.DefMask(ev), m)
		}
	}
}

// TestAnalyzeMatchesOracle: the dense Analyze equals the map-based
// reference walk, serial and parallel, on every kernel and randomized
// program at the default configuration, and on the smaller traces also
// with the exact-address oracle and at walk depths 1 and unbounded.
func TestAnalyzeMatchesOracle(t *testing.T) {
	names := oracleNames()
	if testing.Short() || raceEnabled {
		names = []string{"nw", "random0"}
	}
	matrix := map[string]bool{"nw": true, "lud": true, "bfs": true, "random0": true, "random1": true}
	for _, name := range names {
		tr := oracleTrace(t, name)
		g := ddg.New(tr)
		aceMask := g.ACEMask()
		for _, depth := range []int{0, 1, -1} {
			for _, exact := range []bool{false, true} {
				if (depth != 0 || exact) && !matrix[name] {
					continue
				}
				cfg := Config{MaxDepth: depth, ExactAddress: exact}
				want := oracleAnalyze(tr, aceMask, cfg, nil)
				for _, par := range []int{0, 2} {
					cfg.Parallel = par
					label := fmt.Sprintf("%s depth=%d exact=%v parallel=%d", name, depth, exact, par)
					assertMatchesOracle(t, label, want, Analyze(tr, g, aceMask, cfg))
				}
			}
		}
	}
}

// TestAnalyzeSeedsTouchSequence: the footprint hook sees exactly the
// reference walk's event sequence, and the unfinalized result carries the
// same per-use masks.
func TestAnalyzeSeedsTouchSequence(t *testing.T) {
	for _, name := range []string{"nw", "lud", "random1"} {
		tr := oracleTrace(t, name)
		aceMask := ddg.New(tr).ACEMask()
		for _, depth := range []int{0, -1} {
			cfg := Config{MaxDepth: depth}
			var want, got []int64
			ref := oracleAnalyze(tr, aceMask, cfg, func(ev int64) { want = append(want, ev) })
			res := AnalyzeSeeds(tr, NewOperandTable(tr), cfg, Seeds(tr, aceMask), func(ev int64) { got = append(got, ev) })
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s depth=%d: touch sequences differ (%d vs %d calls)", name, depth, len(want), len(got))
			}
			res.Finalize(tr)
			assertMatchesOracle(t, fmt.Sprintf("%s depth=%d seeds", name, depth), ref, res)
		}
	}
}
