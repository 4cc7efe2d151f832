package interp

import (
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/trace"
)

// run builds and executes a module, failing the test on harness errors.
func run(t *testing.T, m *ir.Module, cfg Config) *Result {
	t.Helper()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("invalid test module: %v", err)
	}
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// outputOnly builds a main that outputs the result of body(b).
func outputOnly(t *testing.T, build func(b *ir.Builder) ir.Value) *Result {
	t.Helper()
	b := ir.NewBuilder("t")
	b.NewFunc("main", ir.Void)
	v := build(b)
	b.Output(v)
	b.Ret(nil)
	return run(t, b.MustModule(), Config{})
}

func TestIntArithmetic(t *testing.T) {
	tests := []struct {
		name string
		op   ir.Opcode
		a, b int64
		ty   *ir.Type
		want uint64
	}{
		{"add", ir.OpAdd, 5, 7, ir.I32, 12},
		{"add wraps", ir.OpAdd, math.MaxInt32, 1, ir.I32, 0x80000000},
		{"sub", ir.OpSub, 5, 7, ir.I32, 0xfffffffe},
		{"mul", ir.OpMul, 6, 7, ir.I32, 42},
		{"sdiv", ir.OpSDiv, -14, 4, ir.I32, uint64(uint32(0xfffffffd))}, // -3
		{"udiv", ir.OpUDiv, 14, 4, ir.I32, 3},
		{"srem", ir.OpSRem, -14, 4, ir.I32, uint64(uint32(0xfffffffe))}, // -2
		{"urem", ir.OpURem, 14, 4, ir.I32, 2},
		{"and", ir.OpAnd, 0b1100, 0b1010, ir.I32, 0b1000},
		{"or", ir.OpOr, 0b1100, 0b1010, ir.I32, 0b1110},
		{"xor", ir.OpXor, 0b1100, 0b1010, ir.I32, 0b0110},
		{"shl", ir.OpShl, 1, 5, ir.I32, 32},
		{"shl overshift", ir.OpShl, 1, 40, ir.I32, 0},
		{"lshr", ir.OpLShr, 0x80000000, 31, ir.I32, 1},
		{"ashr", ir.OpAShr, -8, 1, ir.I32, uint64(uint32(0xfffffffc))}, // -4
		{"ashr overshift", ir.OpAShr, -8, 99, ir.I32, 0xffffffff},
		{"i64 mul", ir.OpMul, 1 << 40, 4, ir.I64, 1 << 42},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := outputOnly(t, func(b *ir.Builder) ir.Value {
				return b.Bin(tt.op, ir.ConstInt(tt.ty, tt.a), ir.ConstInt(tt.ty, tt.b))
			})
			if res.Exception != nil {
				t.Fatalf("unexpected exception: %v", res.Exception)
			}
			if got := res.Outputs[0].Bits; got != tt.want {
				t.Errorf("got %#x, want %#x", got, tt.want)
			}
		})
	}
}

func TestDivisionErrors(t *testing.T) {
	tests := []struct {
		name string
		op   ir.Opcode
		a, b int64
	}{
		{"sdiv by zero", ir.OpSDiv, 10, 0},
		{"udiv by zero", ir.OpUDiv, 10, 0},
		{"srem by zero", ir.OpSRem, 10, 0},
		{"urem by zero", ir.OpURem, 10, 0},
		{"sdiv overflow", ir.OpSDiv, math.MinInt32, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := ir.NewBuilder("t")
			b.NewFunc("main", ir.Void)
			b.Bin(tt.op, ir.ConstInt(ir.I32, tt.a), ir.ConstInt(ir.I32, tt.b))
			b.Ret(nil)
			res := run(t, b.MustModule(), Config{})
			if res.Exception == nil || res.Exception.Kind != ExcArith {
				t.Errorf("want ExcArith, got %v", res.Exception)
			}
		})
	}
}

func TestFloatArithmetic(t *testing.T) {
	res := outputOnly(t, func(b *ir.Builder) ir.Value {
		x := b.FMul(ir.ConstFloat(ir.F64, 1.5), ir.ConstFloat(ir.F64, 4.0))
		return b.FAdd(x, ir.ConstFloat(ir.F64, 0.5))
	})
	if got := math.Float64frombits(res.Outputs[0].Bits); got != 6.5 {
		t.Errorf("got %v, want 6.5", got)
	}
}

func TestFloatDivByZeroDoesNotTrap(t *testing.T) {
	// IEEE semantics: FP division by zero yields Inf, not SIGFPE.
	res := outputOnly(t, func(b *ir.Builder) ir.Value {
		return b.FDiv(ir.ConstFloat(ir.F64, 1.0), ir.ConstFloat(ir.F64, 0.0))
	})
	if res.Exception != nil {
		t.Fatalf("FP div-by-zero trapped: %v", res.Exception)
	}
	if got := math.Float64frombits(res.Outputs[0].Bits); !math.IsInf(got, 1) {
		t.Errorf("got %v, want +Inf", got)
	}
}

func TestFloat32Arithmetic(t *testing.T) {
	res := outputOnly(t, func(b *ir.Builder) ir.Value {
		return b.FAdd(ir.ConstFloat(ir.F32, 0.25), ir.ConstFloat(ir.F32, 0.5))
	})
	if got := math.Float32frombits(uint32(res.Outputs[0].Bits)); got != 0.75 {
		t.Errorf("got %v, want 0.75", got)
	}
}

func TestConversions(t *testing.T) {
	tests := []struct {
		name  string
		build func(b *ir.Builder) ir.Value
		want  uint64
	}{
		{"sext negative", func(b *ir.Builder) ir.Value {
			return b.Convert(ir.OpSExt, ir.ConstInt(ir.I8, -1), ir.I32)
		}, 0xffffffff},
		{"zext", func(b *ir.Builder) ir.Value {
			return b.Convert(ir.OpZExt, ir.ConstInt(ir.I8, -1), ir.I32)
		}, 0xff},
		{"trunc", func(b *ir.Builder) ir.Value {
			return b.Convert(ir.OpTrunc, ir.ConstInt(ir.I32, 0x12345678), ir.I8)
		}, 0x78},
		{"fptosi", func(b *ir.Builder) ir.Value {
			return b.Convert(ir.OpFPToSI, ir.ConstFloat(ir.F64, -3.7), ir.I32)
		}, uint64(uint32(0xfffffffd))}, // -3: truncation toward zero
		{"sitofp", func(b *ir.Builder) ir.Value {
			return b.Convert(ir.OpSIToFP, ir.ConstInt(ir.I32, -2), ir.F64)
		}, math.Float64bits(-2.0)},
		{"bitcast f64 to i64", func(b *ir.Builder) ir.Value {
			return b.Convert(ir.OpBitcast, ir.ConstFloat(ir.F64, 1.0), ir.I64)
		}, math.Float64bits(1.0)},
		{"fpext", func(b *ir.Builder) ir.Value {
			return b.Convert(ir.OpFPExt, ir.ConstFloat(ir.F32, 0.5), ir.F64)
		}, math.Float64bits(0.5)},
		{"fptrunc", func(b *ir.Builder) ir.Value {
			return b.Convert(ir.OpFPTrunc, ir.ConstFloat(ir.F64, 0.5), ir.F32)
		}, uint64(math.Float32bits(0.5))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := outputOnly(t, tt.build)
			if got := res.Outputs[0].Bits; got != tt.want {
				t.Errorf("got %#x, want %#x", got, tt.want)
			}
		})
	}
}

func TestFPToSISaturates(t *testing.T) {
	res := outputOnly(t, func(b *ir.Builder) ir.Value {
		return b.Convert(ir.OpFPToSI, ir.ConstFloat(ir.F64, 1e30), ir.I32)
	})
	if got := int32(res.Outputs[0].Bits); got != math.MaxInt32 {
		t.Errorf("got %d, want MaxInt32", got)
	}
}

// buildSumLoop creates main() that sums 0..n-1 via a stack array and outputs
// the total.
func buildSumLoop(n int) *ir.Module {
	b := ir.NewBuilder("sum")
	b.NewFunc("main", ir.Void)
	arr := b.Alloca(ir.I32, n)
	accp := b.Alloca(ir.I32, 1)
	b.Store(ir.ConstInt(ir.I32, 0), accp)
	entry := b.CurBlock()
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)

	b.SetBlock(header)
	i := b.Phi(ir.I32)
	cond := b.ICmp(ir.ISLT, i, ir.ConstInt(ir.I32, int64(n)))
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	idx := b.Convert(ir.OpSExt, i, ir.I64)
	p := b.GEP(arr, idx)
	b.Store(i, p)
	v := b.Load(p)
	acc := b.Load(accp)
	sum := b.Add(acc, v)
	b.Store(sum, accp)
	inext := b.Add(i, ir.ConstInt(ir.I32, 1))
	b.Br(header)

	b.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	b.AddIncoming(i, inext, body)

	b.SetBlock(exit)
	b.Output(b.Load(accp))
	b.Ret(nil)
	return b.MustModule()
}

func TestLoopWithMemory(t *testing.T) {
	res := run(t, buildSumLoop(10), Config{})
	if res.Exception != nil {
		t.Fatalf("exception: %v", res.Exception)
	}
	if got := res.Outputs[0].Bits; got != 45 {
		t.Errorf("sum = %d, want 45", got)
	}
}

func TestFunctionCall(t *testing.T) {
	b := ir.NewBuilder("call")
	sq := b.NewFunc("sq", ir.I32, &ir.Param{Name: "x", Ty: ir.I32})
	x := sq.Params[0]
	b.Ret(b.Mul(x, x))
	b.NewFunc("main", ir.Void)
	r := b.Call(sq, ir.ConstInt(ir.I32, 9))
	b.Output(r)
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if got := res.Outputs[0].Bits; got != 81 {
		t.Errorf("sq(9) = %d, want 81", got)
	}
}

func TestRecursion(t *testing.T) {
	// fib(10) = 55 via naive recursion: exercises frame push/pop.
	b := ir.NewBuilder("fib")
	fib := b.NewFunc("fib", ir.I32, &ir.Param{Name: "n", Ty: ir.I32})
	n := fib.Params[0]
	base := b.CurBlock()
	rec := b.NewBlock("rec")
	done := b.NewBlock("done")
	b.SetBlock(base)
	cond := b.ICmp(ir.ISLT, n, ir.ConstInt(ir.I32, 2))
	b.CondBr(cond, done, rec)
	b.SetBlock(done)
	b.Ret(n)
	b.SetBlock(rec)
	a := b.Call(fib, b.Sub(n, ir.ConstInt(ir.I32, 1)))
	c := b.Call(fib, b.Sub(n, ir.ConstInt(ir.I32, 2)))
	b.Ret(b.Add(a, c))
	b.NewFunc("main", ir.Void)
	b.Output(b.Call(fib, ir.ConstInt(ir.I32, 10)))
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if got := res.Outputs[0].Bits; got != 55 {
		t.Errorf("fib(10) = %d, want 55", got)
	}
}

func TestGlobalsLoaded(t *testing.T) {
	b := ir.NewBuilder("glob")
	g := b.GlobalVar("data", ir.I32, 4, []uint64{10, 20, 30, 40})
	b.NewFunc("main", ir.Void)
	p := b.GEP(g, ir.ConstInt(ir.I64, 2))
	b.Output(b.Load(p))
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if got := res.Outputs[0].Bits; got != 30 {
		t.Errorf("data[2] = %d, want 30", got)
	}
}

func TestReadOnlyGlobalStoreFaults(t *testing.T) {
	b := ir.NewBuilder("ro")
	g := b.GlobalVar("k", ir.I32, 1, []uint64{7})
	g.ReadOnly = true
	b.NewFunc("main", ir.Void)
	b.Store(ir.ConstInt(ir.I32, 0), g)
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if res.Exception == nil || res.Exception.Kind != ExcSegFault {
		t.Errorf("store to rodata: want segfault, got %v", res.Exception)
	}
}

func TestNullDereferenceFaults(t *testing.T) {
	b := ir.NewBuilder("null")
	b.NewFunc("main", ir.Void)
	p := b.Convert(ir.OpIntToPtr, ir.ConstInt(ir.I64, 0), ir.PtrTo(ir.I32))
	b.Load(p)
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if res.Exception == nil || res.Exception.Kind != ExcSegFault {
		t.Errorf("null deref: want segfault, got %v", res.Exception)
	}
	if !res.Crashed() {
		t.Error("Crashed() must be true for a segfault")
	}
}

func TestMisalignedAccessFaults(t *testing.T) {
	b := ir.NewBuilder("mma")
	b.NewFunc("main", ir.Void)
	arr := b.Alloca(ir.I32, 4)
	pi := b.Convert(ir.OpPtrToInt, arr, ir.I64)
	off := b.Add(pi, ir.ConstInt(ir.I64, 2))
	p := b.Convert(ir.OpIntToPtr, off, ir.PtrTo(ir.I32))
	b.Load(p)
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if res.Exception == nil || res.Exception.Kind != ExcMisaligned {
		t.Errorf("misaligned load: want ExcMisaligned, got %v", res.Exception)
	}
	// With AlignNone the same program completes.
	res = run(t, b.MustModule(), Config{Align: AlignNone})
	if res.Exception != nil {
		t.Errorf("AlignNone still trapped: %v", res.Exception)
	}
}

func TestAbort(t *testing.T) {
	b := ir.NewBuilder("abort")
	b.NewFunc("main", ir.Void)
	b.Abort()
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if res.Exception == nil || res.Exception.Kind != ExcAbort {
		t.Errorf("want abort, got %v", res.Exception)
	}
}

func TestDetect(t *testing.T) {
	b := ir.NewBuilder("det")
	b.NewFunc("main", ir.Void)
	b.Detect()
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if !res.Detected() || res.Crashed() {
		t.Errorf("detect must be Detected, not Crashed: %v", res.Exception)
	}
}

func TestInvalidFreeAborts(t *testing.T) {
	b := ir.NewBuilder("badfree")
	b.NewFunc("main", ir.Void)
	p := b.Convert(ir.OpIntToPtr, ir.ConstInt(ir.I64, 0x1000), ir.PtrTo(ir.I8))
	b.Free(p)
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if res.Exception == nil || res.Exception.Kind != ExcAbort {
		t.Errorf("invalid free: want abort, got %v", res.Exception)
	}
}

func TestMallocAndHeapAccess(t *testing.T) {
	b := ir.NewBuilder("heap")
	b.NewFunc("main", ir.Void)
	p := b.Malloc(ir.I64, ir.ConstInt(ir.I64, 80))
	q := b.GEP(p, ir.ConstInt(ir.I64, 9))
	b.Store(ir.ConstInt(ir.I64, 123), q)
	b.Output(b.Load(q))
	b.Free(p)
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if res.Exception != nil {
		t.Fatalf("exception: %v", res.Exception)
	}
	if got := res.Outputs[0].Bits; got != 123 {
		t.Errorf("heap roundtrip = %d", got)
	}
}

func TestHugeMallocReturnsNull(t *testing.T) {
	b := ir.NewBuilder("hugemalloc")
	b.NewFunc("main", ir.Void)
	p := b.Malloc(ir.I64, ir.ConstInt(ir.I64, 1<<40))
	b.Load(p) // NULL deref
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if res.Exception == nil || res.Exception.Kind != ExcSegFault {
		t.Errorf("NULL deref after huge malloc: got %v", res.Exception)
	}
}

func TestHangDetection(t *testing.T) {
	b := ir.NewBuilder("hang")
	b.NewFunc("main", ir.Void)
	loop := b.NewBlock("loop")
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	res := run(t, b.MustModule(), Config{MaxDynInstrs: 1000})
	if !res.Hang {
		t.Error("infinite loop not reported as hang")
	}
}

func TestSelect(t *testing.T) {
	res := outputOnly(t, func(b *ir.Builder) ir.Value {
		c := b.ICmp(ir.ISGT, ir.ConstInt(ir.I32, 5), ir.ConstInt(ir.I32, 3))
		return b.Select(c, ir.ConstInt(ir.I32, 100), ir.ConstInt(ir.I32, 200))
	})
	if got := res.Outputs[0].Bits; got != 100 {
		t.Errorf("select = %d, want 100", got)
	}
}

func TestICmpPredicates(t *testing.T) {
	tests := []struct {
		p    ir.Pred
		a, b int64
		want uint64
	}{
		{ir.IEQ, 3, 3, 1}, {ir.INE, 3, 3, 0},
		{ir.ISLT, -1, 0, 1}, {ir.IULT, -1, 0, 0}, // -1 unsigned is max
		{ir.ISGE, -1, -1, 1}, {ir.IUGT, -1, 1, 1},
		{ir.ISLE, 2, 2, 1}, {ir.ISGT, 2, 2, 0},
		{ir.IULE, 1, 2, 1}, {ir.IUGE, 2, 1, 1},
	}
	for _, tt := range tests {
		res := outputOnly(t, func(b *ir.Builder) ir.Value {
			c := b.ICmp(tt.p, ir.ConstInt(ir.I32, tt.a), ir.ConstInt(ir.I32, tt.b))
			return b.Convert(ir.OpZExt, c, ir.I32)
		})
		if got := res.Outputs[0].Bits; got != tt.want {
			t.Errorf("icmp %s %d,%d = %d, want %d", tt.p, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestTraceRecording(t *testing.T) {
	res := run(t, buildSumLoop(5), Config{Record: true})
	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	if tr.NumEvents() != res.DynInstrs {
		t.Errorf("trace has %d events, run retired %d", tr.NumEvents(), res.DynInstrs)
	}
	// Every load must carry an address and VMA snapshot; loads of stored
	// locations must link to the store.
	loads, linked := 0, 0
	for i := range tr.NumEvents() {
		ev := tr.Event(i)
		if ev.Instr.Op == ir.OpLoad {
			loads++
			if ev.Addr == 0 {
				t.Error("load event without address")
			}
			if tr.Snapshots[ev.VMAVer] == nil {
				t.Error("load event with missing VMA snapshot")
			}
			if ev.MemDef != trace.NoDef {
				linked++
				st := tr.Event(ev.MemDef)
				if st.Instr.Op != ir.OpStore || st.Addr != ev.Addr {
					t.Error("MemDef does not point at the defining store")
				}
			}
		}
	}
	if loads == 0 || linked == 0 {
		t.Errorf("loads=%d linked=%d; expected both nonzero", loads, linked)
	}
	// Output def chain must resolve to a load event.
	out := tr.Outputs[0]
	if out.Def == trace.NoDef {
		t.Fatal("output has no defining event")
	}
	if tr.Instr(out.Def).Op != ir.OpLoad {
		t.Errorf("output defined by %s, want load", tr.Instr(out.Def).Op)
	}
}

func TestTraceOpDefsAreBackward(t *testing.T) {
	res := run(t, buildSumLoop(5), Config{Record: true})
	for i := range res.Trace.NumEvents() {
		ev := res.Trace.Event(i)
		for _, d := range ev.OpDefs {
			if d != trace.NoDef && d >= int64(i) {
				t.Fatalf("event %d has operand defined by later event %d", i, d)
			}
		}
		if ev.MemDef != trace.NoDef && ev.MemDef >= int64(i) {
			t.Fatalf("event %d has MemDef %d in the future", i, ev.MemDef)
		}
	}
}

func TestInjectionChangesValue(t *testing.T) {
	// Golden run of sum(10): output 45. Flip bit 3 of an accumulator add's
	// result register and observe a changed output (or a crash).
	m := buildSumLoop(10)
	golden := mustRun(t, m, Config{Record: true})
	var target int64 = -1
	for i := range golden.Trace.NumEvents() {
		ev := golden.Trace.Event(i)
		if ev.Instr.Op == ir.OpAdd && trace.IsDef(ev.Instr) {
			target = int64(i)
			break
		}
	}
	if target < 0 {
		t.Fatal("no injectable add found")
	}
	inj := &Injection{Event: target, Bit: 3}
	res := mustRun(t, m, Config{Injection: inj})
	if !inj.Applied {
		t.Fatal("injection not applied")
	}
	if res.Exception == nil && !res.Hang {
		same := len(res.Outputs) == len(golden.Outputs)
		if same {
			for i := range res.Outputs {
				if res.Outputs[i].Bits != golden.Outputs[i].Bits {
					same = false
					break
				}
			}
		}
		if same {
			t.Error("bit flip in live add operand produced identical output")
		}
	}
}

func TestInjectionIntoAddressCrashes(t *testing.T) {
	// Flipping a high bit of an address-producing register must segfault at
	// the consuming access.
	m := buildSumLoop(10)
	golden := mustRun(t, m, Config{Record: true})
	var target int64 = -1
	for i := range golden.Trace.NumEvents() {
		ev := golden.Trace.Event(i)
		if ev.Instr.Op == ir.OpGEP {
			target = int64(i)
			break
		}
	}
	if target < 0 {
		t.Fatal("no address-producing gep found")
	}
	inj := &Injection{Event: target, Bit: 40}
	res := mustRun(t, m, Config{Injection: inj})
	if !inj.Applied {
		t.Fatal("injection not applied")
	}
	if res.Exception == nil || res.Exception.Kind != ExcSegFault {
		t.Errorf("high-bit address flip: want segfault, got %v (hang=%v)", res.Exception, res.Hang)
	}
}

func TestInjectionDeterminism(t *testing.T) {
	m := buildSumLoop(10)
	inj1 := &Injection{Event: 7, Bit: 2}
	inj2 := &Injection{Event: 7, Bit: 2}
	r1 := mustRun(t, m, Config{Injection: inj1})
	r2 := mustRun(t, m, Config{Injection: inj2})
	if (r1.Exception == nil) != (r2.Exception == nil) || r1.Hang != r2.Hang ||
		len(r1.Outputs) != len(r2.Outputs) {
		t.Fatal("identical injections diverged")
	}
	for i := range r1.Outputs {
		if r1.Outputs[i].Bits != r2.Outputs[i].Bits {
			t.Fatal("identical injections produced different outputs")
		}
	}
}

func TestLayoutJitterKeepsOutputs(t *testing.T) {
	// The same program under a shifted layout must produce identical
	// outputs and dynamic instruction counts (control flow is address
	// independent).
	m := buildSumLoop(16)
	base := mustRun(t, m, Config{})
	l := mem.DefaultLayout()
	l.HeapBase += 16 * mem.PageSize
	l.StackTop -= 8 * mem.PageSize
	shifted := mustRun(t, m, Config{Layout: l})
	if base.DynInstrs != shifted.DynInstrs {
		t.Errorf("dyn instrs differ: %d vs %d", base.DynInstrs, shifted.DynInstrs)
	}
	if len(base.Outputs) != len(shifted.Outputs) {
		t.Fatal("output count differs under jitter")
	}
	for i := range base.Outputs {
		if base.Outputs[i].Bits != shifted.Outputs[i].Bits {
			t.Error("output bits differ under jitter")
		}
	}
}

func TestRunMissingEntry(t *testing.T) {
	b := ir.NewBuilder("noentry")
	b.NewFunc("notmain", ir.Void)
	b.Ret(nil)
	if _, err := Run(b.MustModule(), Config{}); err == nil {
		t.Error("Run without main must error")
	}
}

func TestStackArrayOutOfBoundsEventuallyFaults(t *testing.T) {
	// Writing far below the frame (past guard) must fault.
	b := ir.NewBuilder("oob")
	b.NewFunc("main", ir.Void)
	arr := b.Alloca(ir.I64, 4)
	p := b.GEP(arr, ir.ConstInt(ir.I64, -(1<<20))) // 8 MiB below
	b.Store(ir.ConstInt(ir.I64, 1), p)
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if res.Exception == nil || res.Exception.Kind != ExcSegFault {
		t.Errorf("deep under-stack store: want segfault, got %v", res.Exception)
	}
}

func TestStackNearbyUnderflowIsLegal(t *testing.T) {
	// An access a few bytes below the frame is inside the stack guard
	// window and must NOT fault — the behaviour that breaks the naive
	// "outside segment => crash" hypothesis (paper §III-D).
	b := ir.NewBuilder("guard")
	b.NewFunc("main", ir.Void)
	arr := b.Alloca(ir.I64, 4)
	p := b.GEP(arr, ir.ConstInt(ir.I64, -64)) // 512 bytes below frame base
	b.Store(ir.ConstInt(ir.I64, 1), p)
	b.Ret(nil)
	res := run(t, b.MustModule(), Config{})
	if res.Exception != nil {
		t.Errorf("in-guard under-stack store faulted: %v", res.Exception)
	}
}

func mustRun(t *testing.T, m *ir.Module, cfg Config) *Result {
	t.Helper()
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}
