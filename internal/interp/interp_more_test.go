package interp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/trace"
)

func TestMathIntrinsics(t *testing.T) {
	tests := []struct {
		name string
		op   ir.Opcode
		args []float64
		want float64
	}{
		{"sqrt", ir.OpSqrt, []float64{49}, 7},
		{"fabs", ir.OpFAbs, []float64{-2.25}, 2.25},
		{"exp0", ir.OpExp, []float64{0}, 1},
		{"log1", ir.OpLog, []float64{1}, 0},
		{"sin0", ir.OpSin, []float64{0}, 0},
		{"cos0", ir.OpCos, []float64{0}, 1},
		{"pow", ir.OpPow, []float64{3, 4}, 81},
		{"fmin", ir.OpFMin, []float64{2, -1}, -1},
		{"fmax", ir.OpFMax, []float64{2, -1}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := outputOnly(t, func(b *ir.Builder) ir.Value {
				if len(tt.args) == 1 {
					return b.MathUnary(tt.op, ir.ConstFloat(ir.F64, tt.args[0]))
				}
				return b.MathBinary(tt.op, ir.ConstFloat(ir.F64, tt.args[0]),
					ir.ConstFloat(ir.F64, tt.args[1]))
			})
			if got := math.Float64frombits(res.Outputs[0].Bits); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMathIntrinsicsFloat32(t *testing.T) {
	res := outputOnly(t, func(b *ir.Builder) ir.Value {
		x := b.MathUnary(ir.OpSqrt, ir.ConstFloat(ir.F32, 16))
		return b.MathBinary(ir.OpFMax, x, ir.ConstFloat(ir.F32, 1))
	})
	if got := math.Float32frombits(uint32(res.Outputs[0].Bits)); got != 4 {
		t.Errorf("f32 sqrt/fmax = %v", got)
	}
}

func TestFCmpPredicates(t *testing.T) {
	tests := []struct {
		p    ir.Pred
		a, b float64
		want uint64
	}{
		{ir.FOEQ, 1.5, 1.5, 1}, {ir.FONE, 1.5, 1.5, 0},
		{ir.FOLT, 1, 2, 1}, {ir.FOLE, 2, 2, 1},
		{ir.FOGT, 3, 2, 1}, {ir.FOGE, 1, 2, 0},
		{ir.FONE, 1, 2, 1},
	}
	for _, tt := range tests {
		res := outputOnly(t, func(b *ir.Builder) ir.Value {
			c := b.FCmp(tt.p, ir.ConstFloat(ir.F64, tt.a), ir.ConstFloat(ir.F64, tt.b))
			return b.Convert(ir.OpZExt, c, ir.I32)
		})
		if got := res.Outputs[0].Bits; got != tt.want {
			t.Errorf("fcmp %s %v,%v = %d, want %d", tt.p, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestFCmpNaNOrdered(t *testing.T) {
	// Ordered comparisons with NaN are false; FONE is also false (both
	// operands must be ordered).
	res := outputOnly(t, func(b *ir.Builder) ir.Value {
		nan := b.FDiv(ir.ConstFloat(ir.F64, 0), ir.ConstFloat(ir.F64, 0))
		c := b.FCmp(ir.FONE, nan, ir.ConstFloat(ir.F64, 1))
		return b.Convert(ir.OpZExt, c, ir.I32)
	})
	if res.Outputs[0].Bits != 0 {
		t.Error("one(NaN, 1) must be false")
	}
}

func TestExceptionError(t *testing.T) {
	b := ir.NewBuilder("e")
	b.NewFunc("main", ir.Void)
	p := b.Convert(ir.OpIntToPtr, ir.ConstInt(ir.I64, 0), ir.PtrTo(ir.I32))
	b.Load(p)
	b.Ret(nil)
	res := mustRun(t, b.MustModule(), Config{})
	if res.Exception == nil {
		t.Fatal("no exception")
	}
	msg := res.Exception.Error()
	if !strings.Contains(msg, "segmentation fault") || !strings.Contains(msg, "load") {
		t.Errorf("exception message %q", msg)
	}
	if ExcKind(99).String() == "" {
		t.Error("unknown exception kind must render")
	}
}

func TestOutputBits(t *testing.T) {
	res := outputOnly(t, func(b *ir.Builder) ir.Value {
		return b.Add(ir.ConstInt(ir.I32, 2), ir.ConstInt(ir.I32, 3))
	})
	bits := res.OutputBits()
	if len(bits) != 1 || bits[0] != 5 {
		t.Errorf("OutputBits = %v", bits)
	}
}

func TestMultiBitInjection(t *testing.T) {
	m := buildSumLoop(10)
	golden := mustRun(t, m, Config{})
	// Mask covering bits 1 and 2 of the first add's result.
	var target int64 = -1
	gr := mustRun(t, m, Config{Record: true})
	for i := range gr.Trace.NumEvents() {
		if gr.Trace.Instr(i).Op == ir.OpAdd {
			target = int64(i)
			break
		}
	}
	inj := &Injection{Event: target, Mask: 0b110}
	res := mustRun(t, m, Config{Injection: inj})
	if !inj.Applied {
		t.Fatal("multi-bit injection not applied")
	}
	if res.Exception == nil && !res.Hang && len(res.Outputs) == len(golden.Outputs) {
		same := true
		for i := range res.Outputs {
			if res.Outputs[i].Bits != golden.Outputs[i].Bits {
				same = false
			}
		}
		if same {
			t.Error("2-bit flip of a live add had no effect")
		}
	}
}

func TestInjectionMaskBeyondWidthIgnored(t *testing.T) {
	m := buildSumLoop(4)
	gr := mustRun(t, m, Config{Record: true})
	var target int64 = -1
	for i := range gr.Trace.NumEvents() {
		if gr.Trace.Instr(i).Op == ir.OpICmp { // 1-bit register
			target = int64(i)
			break
		}
	}
	// Mask touches only bits above the i1 width: must be a no-op.
	inj := &Injection{Event: target, Mask: 0xff00}
	res := mustRun(t, m, Config{Injection: inj})
	if inj.Applied {
		t.Error("out-of-width mask applied")
	}
	if res.Exception != nil || res.Outputs[0].Bits != gr.Outputs[0].Bits {
		t.Error("no-op injection changed behaviour")
	}
}

// TestIntArithAgainstGo cross-checks the interpreter's 32-bit arithmetic
// against Go's own semantics on random operands.
func TestIntArithAgainstGo(t *testing.T) {
	ops := []struct {
		op ir.Opcode
		f  func(a, b int32) (int32, bool)
	}{
		{ir.OpAdd, func(a, b int32) (int32, bool) { return a + b, true }},
		{ir.OpSub, func(a, b int32) (int32, bool) { return a - b, true }},
		{ir.OpMul, func(a, b int32) (int32, bool) { return a * b, true }},
		{ir.OpAnd, func(a, b int32) (int32, bool) { return a & b, true }},
		{ir.OpOr, func(a, b int32) (int32, bool) { return a | b, true }},
		{ir.OpXor, func(a, b int32) (int32, bool) { return a ^ b, true }},
		{ir.OpSDiv, func(a, b int32) (int32, bool) {
			if b == 0 || (a == math.MinInt32 && b == -1) {
				return 0, false
			}
			return a / b, true
		}},
		{ir.OpSRem, func(a, b int32) (int32, bool) {
			if b == 0 || (a == math.MinInt32 && b == -1) {
				return 0, false
			}
			return a % b, true
		}},
	}
	for _, o := range ops {
		o := o
		f := func(a, b int32) bool {
			want, defined := o.f(a, b)
			bld := ir.NewBuilder("t")
			bld.NewFunc("main", ir.Void)
			r := bld.Bin(o.op, ir.ConstInt(ir.I32, int64(a)), ir.ConstInt(ir.I32, int64(b)))
			bld.Output(r)
			bld.Ret(nil)
			res, err := Run(bld.MustModule(), Config{})
			if err != nil {
				return false
			}
			if !defined {
				return res.Exception != nil && res.Exception.Kind == ExcArith
			}
			if res.Exception != nil {
				return false
			}
			return int32(res.Outputs[0].Bits) == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s disagrees with Go semantics: %v", o.op, err)
		}
	}
}

func TestShiftSemanticsProperty(t *testing.T) {
	// Overshifts are defined (0 / sign-fill), unlike Go's runtime panic
	// domain; in-range shifts agree with Go.
	f := func(a int32, s uint8) bool {
		sh := int64(s % 64)
		bld := ir.NewBuilder("t")
		bld.NewFunc("main", ir.Void)
		r := bld.Bin(ir.OpAShr, ir.ConstInt(ir.I32, int64(a)), ir.ConstInt(ir.I32, sh))
		bld.Output(r)
		bld.Ret(nil)
		res, err := Run(bld.MustModule(), Config{})
		if err != nil || res.Exception != nil {
			return false
		}
		want := a >> uint(min64(sh, 31))
		return int32(res.Outputs[0].Bits) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func min64(a int64, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestInfiniteRecursionTerminates(t *testing.T) {
	// Unbounded recursion must end in either a stack-overflow segfault or
	// the hang budget — never a harness error or a wedged interpreter.
	b := ir.NewBuilder("rec")
	fn := b.NewFunc("spin", ir.I32, &ir.Param{Name: "x", Ty: ir.I32})
	// Consume some stack per frame so the rlimit is reachable.
	slot := b.Alloca(ir.I64, 64)
	b.Store(ir.ConstInt(ir.I64, 1), slot)
	b.Ret(b.Call(fn, b.Add(fn.Params[0], ir.ConstInt(ir.I32, 1))))
	b.NewFunc("main", ir.Void)
	b.Output(b.Call(fn, ir.ConstInt(ir.I32, 0)))
	b.Ret(nil)
	m := b.MustModule()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, m, Config{MaxDynInstrs: 5_000_000})
	switch {
	case res.Exception != nil && res.Exception.Kind == ExcSegFault:
		// stack overflow: the expected Linux behaviour
	case res.Hang:
		// acceptable if the budget fires first
	default:
		t.Fatalf("infinite recursion ended strangely: exc=%v hang=%v", res.Exception, res.Hang)
	}
}

func TestDeepButBoundedRecursion(t *testing.T) {
	// A depth-1000 recursion fits comfortably in the 8 MiB stack.
	b := ir.NewBuilder("deep")
	fn := b.NewFunc("down", ir.I32, &ir.Param{Name: "n", Ty: ir.I32})
	n := fn.Params[0]
	base := b.CurBlock()
	rec := b.NewBlock("rec")
	done := b.NewBlock("done")
	b.SetBlock(base)
	b.CondBr(b.ICmp(ir.ISLE, n, ir.ConstInt(ir.I32, 0)), done, rec)
	b.SetBlock(done)
	b.Ret(ir.ConstInt(ir.I32, 0))
	b.SetBlock(rec)
	r := b.Call(fn, b.Sub(n, ir.ConstInt(ir.I32, 1)))
	b.Ret(b.Add(r, ir.ConstInt(ir.I32, 1)))
	b.NewFunc("main", ir.Void)
	b.Output(b.Call(fn, ir.ConstInt(ir.I32, 1000)))
	b.Ret(nil)
	res := mustRun(t, b.MustModule(), Config{})
	if res.Exception != nil || res.Hang {
		t.Fatalf("bounded recursion failed: %v %v", res.Exception, res.Hang)
	}
	if res.Outputs[0].Bits != 1000 {
		t.Errorf("depth count = %d", res.Outputs[0].Bits)
	}
}

// TestNormalizeClampsRecordingBudget: a recording run's budget is clamped
// to what a trace can index, and a run that does not record keeps its
// budget.
func TestNormalizeClampsRecordingBudget(t *testing.T) {
	m, err := ir.Parse("define void @main() {\nentry:\n  output i64 1\n  ret void\n}")
	if err != nil {
		t.Fatal(err)
	}
	huge := int64(math.MaxInt64)
	cfg, _, err := Normalize(m, Config{Record: true, MaxDynInstrs: huge})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxDynInstrs != trace.MaxBudget(m) {
		t.Errorf("recording budget %d, want trace.MaxBudget %d", cfg.MaxDynInstrs, trace.MaxBudget(m))
	}
	if cfg, _, _ = Normalize(m, Config{Record: true}); cfg.MaxDynInstrs != DefaultMaxDynInstrs {
		t.Errorf("default recording budget %d, want %d", cfg.MaxDynInstrs, DefaultMaxDynInstrs)
	}
	if cfg, _, _ = Normalize(m, Config{MaxDynInstrs: huge}); cfg.MaxDynInstrs != huge {
		t.Errorf("budget of a run that does not record clamped to %d", cfg.MaxDynInstrs)
	}
}
