package ir

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeSizes(t *testing.T) {
	tests := []struct {
		ty    *Type
		size  int64
		align int64
		bits  int
	}{
		{I1, 1, 1, 1},
		{I8, 1, 1, 8},
		{I16, 2, 2, 16},
		{I32, 4, 4, 32},
		{I64, 8, 8, 64},
		{F32, 4, 4, 32},
		{F64, 8, 8, 64},
		{PtrTo(I32), 8, 8, 64},
		{ArrayOf(10, I32), 40, 4, 320},
		{ArrayOf(3, F64), 24, 8, 192},
		{Void, 0, 1, 0},
	}
	for _, tt := range tests {
		if got := tt.ty.Size(); got != tt.size {
			t.Errorf("%s.Size() = %d, want %d", tt.ty, got, tt.size)
		}
		if got := tt.ty.Align(); got != tt.align {
			t.Errorf("%s.Align() = %d, want %d", tt.ty, got, tt.align)
		}
		if got := tt.ty.BitWidth(); got != tt.bits {
			t.Errorf("%s.BitWidth() = %d, want %d", tt.ty, got, tt.bits)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !PtrTo(I32).Equal(PtrTo(I32)) {
		t.Error("identical pointer types must be equal")
	}
	if PtrTo(I32).Equal(PtrTo(I64)) {
		t.Error("i32* must differ from i64*")
	}
	if I32.Equal(F32) {
		t.Error("i32 must differ from float")
	}
	if !ArrayOf(4, I8).Equal(ArrayOf(4, I8)) {
		t.Error("identical array types must be equal")
	}
	if ArrayOf(4, I8).Equal(ArrayOf(5, I8)) {
		t.Error("arrays of different length must differ")
	}
	if I32.Equal(nil) {
		t.Error("type must not equal nil")
	}
}

func TestIntTypeSingletons(t *testing.T) {
	if IntType(32) != I32 || IntType(64) != I64 || IntType(1) != I1 {
		t.Error("IntType must return singletons for standard widths")
	}
	odd := IntType(24)
	if odd.Bits != 24 || !odd.IsInt() {
		t.Errorf("IntType(24) = %v", odd)
	}
	if odd.Size() != 3 {
		t.Errorf("i24 size = %d, want 3", odd.Size())
	}
}

func TestConstInt(t *testing.T) {
	tests := []struct {
		ty   *Type
		v    int64
		want int64
	}{
		{I32, 42, 42},
		{I32, -1, -1},
		{I8, 255, -1},
		{I8, 127, 127},
		{I1, 1, -1},
		{I64, math.MinInt64, math.MinInt64},
	}
	for _, tt := range tests {
		c := ConstInt(tt.ty, tt.v)
		if got := c.Int(); got != tt.want {
			t.Errorf("ConstInt(%s, %d).Int() = %d, want %d", tt.ty, tt.v, got, tt.want)
		}
	}
}

func TestConstFloat(t *testing.T) {
	c := ConstFloat(F64, 3.5)
	if c.Float() != 3.5 {
		t.Errorf("F64 const roundtrip = %v", c.Float())
	}
	c32 := ConstFloat(F32, 1.25)
	if c32.Float() != 1.25 {
		t.Errorf("F32 const roundtrip = %v", c32.Float())
	}
	if c32.Bits != uint64(math.Float32bits(1.25)) {
		t.Error("F32 const must store 32-bit IEEE encoding")
	}
}

func TestSignExtendProperty(t *testing.T) {
	f := func(v uint64) bool {
		// Sign-extending the truncation of an int64 through 64 bits is the
		// identity.
		return SignExtend(v, 64) == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(v int32) bool {
		return SignExtend(uint64(uint32(v)), 32) == int64(v)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	h := func(v int8) bool {
		return SignExtend(uint64(uint8(v)), 8) == int64(v)
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

func TestTruncateToWidthProperty(t *testing.T) {
	f := func(v uint64) bool {
		if TruncateToWidth(v, 64) != v {
			return false
		}
		if TruncateToWidth(v, 32) != v&0xffffffff {
			return false
		}
		return TruncateToWidth(v, 1) == v&1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// buildLoopModule constructs a small valid module with a loop, a phi, and
// memory traffic; used by several structural tests.
func buildLoopModule(t *testing.T) *Module {
	t.Helper()
	b := NewBuilder("loop")
	b.NewFunc("main", Void)
	arr := b.Alloca(I32, 8)
	entry := b.CurBlock()
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)

	b.SetBlock(header)
	i := b.Phi(I32)
	cond := b.ICmp(ISLT, i, ConstInt(I32, 8))
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	idx64 := b.Convert(OpSExt, i, I64)
	p := b.GEP(arr, idx64)
	b.Store(i, p)
	inext := b.Add(i, ConstInt(I32, 1))
	b.Br(header)

	b.AddIncoming(i, ConstInt(I32, 0), entry)
	b.AddIncoming(i, inext, body)

	b.SetBlock(exit)
	last := b.Load(b.GEP(arr, ConstInt(I64, 7)))
	b.Output(last)
	b.Ret(nil)
	m, err := b.Module()
	if err != nil {
		t.Fatalf("building loop module: %v", err)
	}
	return m
}

func TestBuilderAndVerify(t *testing.T) {
	m := buildLoopModule(t)
	if err := Verify(m); err != nil {
		t.Fatalf("Verify(loop) = %v", err)
	}
	if m.NumInstrs() == 0 {
		t.Fatal("module has no instructions after Finish")
	}
	f := m.Func("main")
	if f == nil {
		t.Fatal("Func(main) = nil")
	}
	if got := f.NumInstrs(); got != m.NumInstrs() {
		t.Errorf("function instrs %d != module instrs %d", got, m.NumInstrs())
	}
}

func TestFinishAssignsDenseIDs(t *testing.T) {
	m := buildLoopModule(t)
	seen := make(map[int]bool)
	for _, f := range m.Funcs {
		local := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if seen[in.ID] {
					t.Fatalf("duplicate static ID %d", in.ID)
				}
				seen[in.ID] = true
				if in.LocalID != local {
					t.Fatalf("LocalID %d, want %d", in.LocalID, local)
				}
				local++
			}
		}
	}
	for i := 0; i < m.NumInstrs(); i++ {
		if !seen[i] {
			t.Fatalf("static ID %d missing", i)
		}
	}
	if in := m.InstrByID(0); in == nil || in.ID != 0 {
		t.Error("InstrByID(0) failed")
	}
	if m.InstrByID(m.NumInstrs()) != nil {
		t.Error("InstrByID out of range must return nil")
	}
}

func TestVerifyRejections(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Module
	}{
		{
			name: "unterminated block",
			build: func() *Module {
				b := NewBuilder("bad")
				b.NewFunc("main", Void)
				b.Add(ConstInt(I32, 1), ConstInt(I32, 2))
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "type mismatch in add",
			build: func() *Module {
				b := NewBuilder("bad")
				b.NewFunc("main", Void)
				in := &Instr{Op: OpAdd, Ty: I32, Args: []Value{ConstInt(I32, 1), ConstInt(I64, 2)}, Name: "x"}
				b.CurBlock().Instrs = append(b.CurBlock().Instrs, in)
				b.Ret(nil)
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "store type mismatch",
			build: func() *Module {
				b := NewBuilder("bad")
				b.NewFunc("main", Void)
				p := b.Alloca(I32, 1)
				in := &Instr{Op: OpStore, Ty: Void, Elem: I64, Args: []Value{ConstInt(I64, 5), p}}
				b.CurBlock().Instrs = append(b.CurBlock().Instrs, in)
				b.Ret(nil)
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "return value from void function",
			build: func() *Module {
				b := NewBuilder("bad")
				b.NewFunc("main", Void)
				b.Ret(ConstInt(I32, 0))
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "condbr on non-i1",
			build: func() *Module {
				b := NewBuilder("bad")
				b.NewFunc("main", Void)
				t1 := b.NewBlock("a")
				t2 := b.NewBlock("b")
				b.CondBr(ConstInt(I32, 1), t1, t2)
				b.SetBlock(t1)
				b.Ret(nil)
				b.SetBlock(t2)
				b.Ret(nil)
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "duplicate global",
			build: func() *Module {
				b := NewBuilder("bad")
				b.GlobalVar("g", I32, 1, nil)
				b.GlobalVar("g", I32, 1, nil)
				b.NewFunc("main", Void)
				b.Ret(nil)
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "use before definition",
			build: func() *Module {
				b := NewBuilder("bad")
				b.NewFunc("main", Void)
				// Manually create a use of a later-defined instruction.
				later := &Instr{Op: OpAdd, Ty: I32, Args: []Value{ConstInt(I32, 1), ConstInt(I32, 1)}, Name: "later"}
				use := &Instr{Op: OpAdd, Ty: I32, Args: []Value{later, ConstInt(I32, 1)}, Name: "use"}
				b.CurBlock().Instrs = append(b.CurBlock().Instrs, use, later)
				b.Ret(nil)
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "negative alloca length",
			build: func() *Module {
				b := NewBuilder("bad")
				b.NewFunc("main", Void)
				b.Alloca(I8, 1).Elem = ArrayOf(-1, I8)
				b.Alloca(I8, 1)
				b.Ret(nil)
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "nested alloca length overflowing int64",
			build: func() *Module {
				b := NewBuilder("bad")
				b.NewFunc("main", Void)
				b.Alloca(ArrayOf(1<<62, I8), 2)
				b.Ret(nil)
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "frame overflowing int64",
			build: func() *Module {
				b := NewBuilder("bad")
				b.NewFunc("main", Void)
				for i := 0; i < 4; i++ {
					b.Alloca(I8, 1<<62)
				}
				b.Ret(nil)
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "negative nested global length",
			build: func() *Module {
				b := NewBuilder("bad")
				b.GlobalVar("g", ArrayOf(-1, I64), 3, nil)
				b.NewFunc("main", Void)
				b.Ret(nil)
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "global count overflowing int64",
			build: func() *Module {
				b := NewBuilder("bad")
				b.GlobalVar("g", I64, 1<<61, nil)
				b.NewFunc("main", Void)
				b.Ret(nil)
				m, _ := b.Module()
				return m
			},
		},
		{
			name: "trunc widening",
			build: func() *Module {
				b := NewBuilder("bad")
				b.NewFunc("main", Void)
				b.Convert(OpTrunc, ConstInt(I32, 1), I64)
				b.Ret(nil)
				m, _ := b.Module()
				return m
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := Verify(tt.build()); err == nil {
				t.Error("Verify accepted an invalid module")
			}
		})
	}
}

func TestVerifyPhiPredecessors(t *testing.T) {
	// A phi with a missing incoming edge must be rejected.
	b := NewBuilder("bad")
	b.NewFunc("main", Void)
	entry := b.CurBlock()
	header := b.NewBlock("header")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	phi := b.Phi(I32)
	b.AddIncoming(phi, ConstInt(I32, 0), entry)
	cond := b.ICmp(ISLT, phi, ConstInt(I32, 3))
	b.CondBr(cond, header, exit) // header is its own predecessor: phi misses it
	b.SetBlock(exit)
	b.Ret(nil)
	m, _ := b.Module()
	if err := Verify(m); err == nil {
		t.Error("Verify accepted phi missing a predecessor edge")
	}
}

func TestDominators(t *testing.T) {
	m := buildLoopModule(t)
	f := m.Func("main")
	idom := Dominators(f)
	entry := f.Entry()
	if idom[entry] != entry {
		t.Error("entry must dominate itself")
	}
	for _, b := range f.Blocks[1:] {
		if !dominates(idom, entry, b) {
			t.Errorf("entry must dominate %s", b.Ident())
		}
	}
	// header dominates body and exit.
	var header, body, exit *Block
	for _, b := range f.Blocks {
		switch {
		case strings.HasPrefix(b.Name, "header"):
			header = b
		case strings.HasPrefix(b.Name, "body"):
			body = b
		case strings.HasPrefix(b.Name, "exit"):
			exit = b
		}
	}
	if !dominates(idom, header, body) || !dominates(idom, header, exit) {
		t.Error("loop header must dominate body and exit")
	}
	if dominates(idom, body, exit) {
		t.Error("loop body must not dominate exit")
	}
}

func TestPrintModule(t *testing.T) {
	m := buildLoopModule(t)
	s := Print(m)
	for _, want := range []string{
		"define void @main()",
		"alloca [8 x i32]",
		"phi i32",
		"icmp slt",
		"getelementptr",
		"store i32",
		"output i32",
		"ret void",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("printed module missing %q:\n%s", want, s)
		}
	}
	if s != Print(m) {
		t.Error("Print must be deterministic")
	}
}

func TestPrintDeterministicOverInstrs(t *testing.T) {
	m := buildLoopModule(t)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if FormatInstr(in) == "" {
					t.Errorf("empty rendering for %s", in.Op)
				}
			}
		}
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !OpAdd.IsIntArith() || OpFAdd.IsIntArith() {
		t.Error("IsIntArith misclassifies")
	}
	if !OpFMul.IsFloatArith() || OpMul.IsFloatArith() {
		t.Error("IsFloatArith misclassifies")
	}
	if !OpBitcast.IsConversion() || OpAdd.IsConversion() {
		t.Error("IsConversion misclassifies")
	}
	if !OpBr.IsTerminator() || !OpRet.IsTerminator() || OpCall.IsTerminator() {
		t.Error("IsTerminator misclassifies")
	}
	if !OpLoad.IsMemAccess() || !OpStore.IsMemAccess() || OpAlloca.IsMemAccess() {
		t.Error("IsMemAccess misclassifies")
	}
}

func TestCallVerification(t *testing.T) {
	b := NewBuilder("calls")
	callee := b.NewFunc("sq", I32, &Param{Name: "x", Ty: I32})
	x := callee.Params[0]
	b.Ret(b.Mul(x, x))
	b.NewFunc("main", Void)
	r := b.Call(callee, ConstInt(I32, 7))
	b.Output(r)
	b.Ret(nil)
	m, err := b.Module()
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(m); err != nil {
		t.Fatalf("valid call rejected: %v", err)
	}

	// Wrong arg count.
	b2 := NewBuilder("calls2")
	callee2 := b2.NewFunc("sq", I32, &Param{Name: "x", Ty: I32})
	b2.Ret(b2.Mul(callee2.Params[0], callee2.Params[0]))
	b2.NewFunc("main", Void)
	b2.Call(callee2)
	b2.Ret(nil)
	m2, _ := b2.Module()
	if err := Verify(m2); err == nil {
		t.Error("call with wrong arity accepted")
	}
}
