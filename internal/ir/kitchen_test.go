package ir

import (
	"strings"
	"testing"
)

// buildKitchenSink exercises every builder method and opcode in one valid
// module.
func buildKitchenSink(t testing.TB) *Module {
	t.Helper()
	b := NewBuilder("kitchen")
	g := b.GlobalVar("tbl", I64, 4, []uint64{1, 2, 3, 4})

	helper := b.NewFunc("helper", F64, &Param{Name: "x", Ty: F64})
	hx := helper.Params[0]
	b.Ret(b.MathUnary(OpSqrt, b.FAdd(hx, ConstFloat(F64, 1))))

	b.NewFunc("main", Void)
	entry := b.CurBlock()
	if b.CurFunc() == nil || b.CurFunc().Name != "main" {
		t.Fatal("CurFunc broken")
	}

	// Integer ops.
	i1v := b.Add(ConstInt(I32, 6), ConstInt(I32, 4))
	i2 := b.Sub(i1v, ConstInt(I32, 1))
	i3 := b.Mul(i2, ConstInt(I32, 2))
	i4 := b.SDiv(i3, ConstInt(I32, 3))
	i5 := b.SRem(i4, ConstInt(I32, 5))
	i6 := b.Bin(OpUDiv, i5, ConstInt(I32, 1))
	i7 := b.Bin(OpURem, i6, ConstInt(I32, 7))
	i8 := b.Bin(OpAnd, i7, ConstInt(I32, 0xff))
	i9 := b.Bin(OpOr, i8, ConstInt(I32, 1))
	i10 := b.Bin(OpXor, i9, ConstInt(I32, 2))
	i11 := b.Bin(OpShl, i10, ConstInt(I32, 1))
	i12 := b.Bin(OpLShr, i11, ConstInt(I32, 1))
	i13 := b.Bin(OpAShr, i12, ConstInt(I32, 1))

	// Float ops and math intrinsics.
	f1 := b.FSub(ConstFloat(F64, 2.5), ConstFloat(F64, 0.5))
	f2 := b.FMul(f1, ConstFloat(F64, 3))
	f3 := b.FDiv(f2, ConstFloat(F64, 2))
	f4 := b.MathBinary(OpPow, f3, ConstFloat(F64, 2))
	f5 := b.MathBinary(OpFMin, f4, ConstFloat(F64, 100))
	f6 := b.MathBinary(OpFMax, f5, ConstFloat(F64, 0))
	f7 := b.MathUnary(OpFAbs, f6)
	f8 := b.MathUnary(OpExp, ConstFloat(F64, 0))
	f9 := b.MathUnary(OpLog, ConstFloat(F64, 1))
	f10 := b.MathUnary(OpSin, f9)
	f11 := b.MathUnary(OpCos, f10)
	_ = f8

	// Comparisons and select.
	c1 := b.ICmp(ISGT, i13, ConstInt(I32, 0))
	c2 := b.FCmp(FOLT, f7, ConstFloat(F64, 1e9))
	both := b.Bin(OpAnd, c1, c2)
	sel := b.Select(both, ConstInt(I32, 11), ConstInt(I32, 22))

	// Conversions.
	z := b.Convert(OpZExt, sel, I64)
	s := b.Convert(OpSExt, sel, I64)
	tr := b.Convert(OpTrunc, z, I16)
	fs := b.Convert(OpSIToFP, s, F64)
	si := b.Convert(OpFPToSI, fs, I64)
	_ = si
	ft := b.Convert(OpFPTrunc, fs, F32)
	fe := b.Convert(OpFPExt, ft, F64)
	bc := b.Convert(OpBitcast, fe, I64)
	_ = tr

	// Memory: alloca, global access, malloc/free, gep.
	slot := b.Alloca(I64, 2)
	b.Store(bc, slot)
	ld := b.Load(slot)
	gp := b.GEP(g, ConstInt(I64, 2))
	gl := b.Load(gp)
	hp := b.Malloc(I64, ConstInt(I64, 64))
	hq := b.GEP(hp, ConstInt(I64, 3))
	b.Store(b.Add(ld, gl), hq)
	hv := b.Load(hq)
	pi := b.Convert(OpPtrToInt, hq, I64)
	pp := b.Convert(OpIntToPtr, pi, PtrTo(I64))
	b.Load(pp)

	// Control flow with phi.
	loop := b.NewBlock("loop")
	exit := b.NewBlock("exit")
	b.Br(loop)
	b.SetBlock(loop)
	phi := b.Phi(I64)
	nxt := b.Add(phi, ConstInt(I64, 1))
	cond := b.ICmp(ISLT, nxt, ConstInt(I64, 4))
	b.CondBr(cond, loop, exit)
	b.AddIncoming(phi, ConstInt(I64, 0), entry)
	b.AddIncoming(phi, nxt, loop)

	b.SetBlock(exit)
	call := b.Call(helper, fs)
	b.Output(call)
	b.Output(hv)
	b.Output(f11)
	b.Free(hp)
	b.Ret(nil)
	return b.MustModule()
}

func TestKitchenSinkVerifiesAndPrints(t *testing.T) {
	m := buildKitchenSink(t)
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	s := Print(m)
	for _, want := range []string{
		"@tbl = global [4 x i64]",
		"define double @helper(double %x)",
		"sqrt", "pow", "fmin", "fmax", "fabs", "exp", "log", "sin", "cos",
		"udiv", "urem", "and", "or", "xor", "shl", "lshr", "ashr",
		"select", "zext", "sext", "trunc", "sitofp", "fptosi", "fptrunc",
		"fpext", "bitcast", "ptrtoint", "inttoptr",
		"malloc", "free", "phi i64",
		"call double @helper",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("printed module missing %q", want)
		}
	}
}

func TestKitchenSinkHelpers(t *testing.T) {
	m := buildKitchenSink(t)
	f := m.Func("main")
	if f.NumLocals() == 0 {
		t.Error("NumLocals zero after Finish")
	}
	if m.Global("tbl") == nil || m.Global("nope") != nil {
		t.Error("Global lookup broken")
	}
	in := f.Entry().Instrs[0]
	if in.Func() != f {
		t.Error("Instr.Func broken")
	}
	if (&Instr{}).Func() != nil {
		t.Error("detached Instr.Func must be nil")
	}
	if !OpPow.IsMathBinary() || OpSqrt.IsMathBinary() {
		t.Error("IsMathBinary misclassifies")
	}
	// Idents render with the right sigils.
	if m.Globals[0].Ident() != "@tbl" {
		t.Error("global ident")
	}
	if f.Blocks[0].Ident()[0] != '%' {
		t.Error("block ident")
	}
}

func TestVerifyMathIntrinsics(t *testing.T) {
	// Math intrinsic on an integer must be rejected.
	b := NewBuilder("badmath")
	b.NewFunc("main", Void)
	in := &Instr{Op: OpSqrt, Ty: I32, Args: []Value{ConstInt(I32, 4)}, Name: "x"}
	b.CurBlock().Instrs = append(b.CurBlock().Instrs, in)
	b.Ret(nil)
	m, _ := b.Module()
	if err := Verify(m); err == nil {
		t.Error("sqrt on i32 accepted")
	}

	b2 := NewBuilder("badmath2")
	b2.NewFunc("main", Void)
	in2 := &Instr{Op: OpPow, Ty: F64,
		Args: []Value{ConstFloat(F64, 1), ConstFloat(F32, 1)}, Name: "y"}
	b2.CurBlock().Instrs = append(b2.CurBlock().Instrs, in2)
	b2.Ret(nil)
	m2, _ := b2.Module()
	if err := Verify(m2); err == nil {
		t.Error("pow with mixed float widths accepted")
	}
}

func TestBuilderErrorPaths(t *testing.T) {
	// Emitting with no block records an error surfaced by Module().
	b := NewBuilder("noblock")
	b.Add(ConstInt(I32, 1), ConstInt(I32, 2))
	if _, err := b.Module(); err == nil {
		t.Error("emit without a function/block not reported")
	}

	// AddIncoming on a non-phi records an error.
	b2 := NewBuilder("notphi")
	b2.NewFunc("main", Void)
	add := b2.Add(ConstInt(I32, 1), ConstInt(I32, 2))
	b2.AddIncoming(add, ConstInt(I32, 0), b2.CurBlock())
	b2.Ret(nil)
	if _, err := b2.Module(); err == nil {
		t.Error("AddIncoming on non-phi not reported")
	}
}

func TestMustModulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustModule did not panic on invalid build")
		}
	}()
	b := NewBuilder("bad")
	b.Add(ConstInt(I32, 1), ConstInt(I32, 2)) // no function
	b.MustModule()
}

func TestInstallFunc(t *testing.T) {
	b := NewBuilder("install")
	fn := &Function{Name: "pre", RetTy: Void}
	b.InstallFunc(fn)
	b.Ret(nil)
	m, err := b.Module()
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("pre") != fn || fn.Parent != m {
		t.Error("InstallFunc did not wire the function")
	}
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestConstIdentRendering(t *testing.T) {
	if ConstInt(I32, -5).Ident() != "-5" {
		t.Error("int const ident")
	}
	if ConstFloat(F64, 2.5).Ident() != "2.5" {
		t.Error("float const ident")
	}
	p := &Param{Name: "n", Ty: I32}
	if p.Ident() != "%n" {
		t.Error("param ident")
	}
}

func TestPredAndOpcodeStrings(t *testing.T) {
	if Pred(999).String() == "" || Opcode(999).String() == "" {
		t.Error("unknown enum values must render placeholders")
	}
	if IEQ.String() != "eq" || FOGE.String() != "oge" {
		t.Error("predicate names wrong")
	}
}
