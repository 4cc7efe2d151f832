package trace

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/mem"
)

func TestOperandWidth(t *testing.T) {
	add := &ir.Instr{Op: ir.OpAdd, Ty: ir.I32,
		Args: []ir.Value{ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2)}}
	if got := OperandWidth(add, 0); got != 32 {
		t.Errorf("add operand width = %d", got)
	}
	if got := OperandWidth(add, 5); got != 0 {
		t.Errorf("out-of-range operand width = %d, want 0", got)
	}
	phi := &ir.Instr{Op: ir.OpPhi, Ty: ir.I64}
	if got := OperandWidth(phi, 0); got != 64 {
		t.Errorf("phi operand width = %d, want result width", got)
	}
	ld := &ir.Instr{Op: ir.OpLoad, Ty: ir.F64, Elem: ir.F64,
		Args: []ir.Value{&ir.Instr{Op: ir.OpAlloca, Ty: ir.PtrTo(ir.F64), Name: "p"}}}
	if got := OperandWidth(ld, 0); got != 64 {
		t.Errorf("load pointer width = %d, want 64", got)
	}
}

func TestInjectableOperand(t *testing.T) {
	reg := &ir.Instr{Op: ir.OpAdd, Ty: ir.I32, Name: "r"}
	param := &ir.Param{Name: "p", Ty: ir.I32}
	tests := []struct {
		in   *ir.Instr
		op   int
		want bool
	}{
		{&ir.Instr{Op: ir.OpAdd, Ty: ir.I32, Args: []ir.Value{reg, ir.ConstInt(ir.I32, 1)}}, 0, true},
		{&ir.Instr{Op: ir.OpAdd, Ty: ir.I32, Args: []ir.Value{reg, ir.ConstInt(ir.I32, 1)}}, 1, false},
		{&ir.Instr{Op: ir.OpAdd, Ty: ir.I32, Args: []ir.Value{param, reg}}, 0, true},
		{&ir.Instr{Op: ir.OpPhi, Ty: ir.I32, Args: []ir.Value{reg}}, 0, true},
		{&ir.Instr{Op: ir.OpPhi, Ty: ir.I32}, 0, false},
		{&ir.Instr{Op: ir.OpAdd, Ty: ir.I32, Args: []ir.Value{reg, reg}}, 7, false},
	}
	for i, tt := range tests {
		if got := InjectableOperand(tt.in, tt.op); got != tt.want {
			t.Errorf("case %d: InjectableOperand = %v, want %v", i, got, tt.want)
		}
	}
}

func TestIsDefAndWidth(t *testing.T) {
	st := &ir.Instr{Op: ir.OpStore, Ty: ir.Void}
	if IsDef(st) {
		t.Error("store must not be a def")
	}
	ld := &ir.Instr{Op: ir.OpLoad, Ty: ir.F32}
	if !IsDef(ld) || DefWidth(ld) != 32 {
		t.Error("load def misclassified")
	}
	gep := &ir.Instr{Op: ir.OpGEP, Ty: ir.PtrTo(ir.I8)}
	if DefWidth(gep) != 64 {
		t.Error("pointer def width must be 64")
	}
}

func TestNumOperands(t *testing.T) {
	phi := &ir.Instr{Op: ir.OpPhi, Ty: ir.I32,
		Args: []ir.Value{ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2)}}
	if NumOperands(phi) != 1 {
		t.Error("phi events record exactly one operand")
	}
	st := &ir.Instr{Op: ir.OpStore, Ty: ir.Void,
		Args: []ir.Value{ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2)}}
	if NumOperands(st) != 2 {
		t.Error("store has two operands")
	}
}

func TestUseString(t *testing.T) {
	u := Use{Event: 42, Op: 1}
	if u.String() != "ev42.op1" {
		t.Errorf("Use.String() = %q", u.String())
	}
}

// TestMaxBudget checks the recording limit's arithmetic on a module whose
// widest instruction is a seven-argument call: a run that exhausts the
// budget retires one event more than it, and at seven slots an event,
// those events' slots must still fit in an int32 while one more event's
// would not.
func TestMaxBudget(t *testing.T) {
	m, err := ir.Parse(`define i64 @sum(i64 %a, i64 %b, i64 %c, i64 %d, i64 %e, i64 %f, i64 %g) {
entry:
  %x = add i64 %a, %g
  ret i64 %x
}
define void @main() {
entry:
  %r = call i64 @sum(i64 1, i64 2, i64 3, i64 4, i64 5, i64 6, i64 7)
  output i64 %r
  ret void
}
`)
	if err != nil {
		t.Fatal(err)
	}
	const width = 7
	b := MaxBudget(m)
	if want := int64(math.MaxInt32/width - 1); b != want {
		t.Fatalf("MaxBudget = %d, want %d", b, want)
	}
	if events := b + 1; events*width > math.MaxInt32 || (events+1)*width <= math.MaxInt32 {
		t.Errorf("budget %d: %d events of %d slots do not fill the int32 slot range tightly", b, events, width)
	}
	// Without the call, the widest instruction has two operands.
	narrow, err := ir.Parse(`define void @main() {
entry:
  %x = add i64 1, 2
  output i64 %x
  ret void
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := MaxBudget(narrow), int64(math.MaxInt32/2-1); got != want {
		t.Errorf("MaxBudget without a call = %d, want %d", got, want)
	}
}

// TestFinishSplitsOperands records two events by hand: operands without
// a def go to Imm, one with a def reads its def's result, and a recording
// where that result is not the value the operand was read with is an
// error naming the operand.
func TestFinishSplitsOperands(t *testing.T) {
	m, err := ir.Parse(`define void @main() {
entry:
  %x = add i64 1, 2
  %y = add i64 %x, 4
  output i64 %y
  ret void
}
`)
	if err != nil {
		t.Fatal(err)
	}
	x, y := m.Instrs()[0], m.Instrs()[1]
	record := func(read uint64) (*Trace, error) {
		r := NewRecorder(m)
		ops, defs := r.Begin(x)
		copy(ops, []uint64{1, 2})
		copy(defs, []int32{-1, -1})
		r.SetResult(0, 3)
		ops, defs = r.Begin(y)
		copy(ops, []uint64{read, 4})
		copy(defs, []int32{0, -1})
		r.SetResult(1, read+4)
		return r.Finish(nil, nil, mem.Layout{})
	}
	tr, err := record(3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{^0, ^1, 0, ^2}; !slices.Equal(tr.OpDefs, want) {
		t.Errorf("OpDefs = %v, want %v", tr.OpDefs, want)
	}
	if want := []uint64{1, 2, 4}; !slices.Equal(tr.Imm, want) {
		t.Errorf("Imm = %v, want %v", tr.Imm, want)
	}
	for s, want := range []uint64{1, 2, 3, 4} {
		if got := tr.Op(s); got != want {
			t.Errorf("Op(%d) = %d, want %d", s, got, want)
		}
	}
	if _, err := record(5); err == nil || !strings.Contains(err.Error(), "event 1 operand 0") {
		t.Errorf("Finish error %v, want one naming event 1 operand 0", err)
	}
}

// TestMemDefsSpanPages checks the recorder's memory-def shadow: a load's
// memory def is the last store covering its first byte, across a page
// boundary, after an overwrite, and none for bytes no store wrote.
func TestMemDefsSpanPages(t *testing.T) {
	m, err := ir.Parse(`define void @main() {
entry:
  %a = alloca i64
  store i64 7, i64* %a
  %v = load i64, i64* %a
  ret void
}
`)
	if err != nil {
		t.Fatal(err)
	}
	store, load := m.Instrs()[1], m.Instrs()[2]
	const page = 9 * mem.PageSize
	r := NewRecorder(m)
	begin := func(in *ir.Instr) {
		_, defs := r.Begin(in)
		for i := range defs {
			defs[i] = int32(NoDef)
		}
	}
	begin(store)
	r.SetStore(0, page-4, 8)
	begin(store)
	r.SetStore(1, page+2, 2)
	loads := []struct {
		addr uint64
		want int64
	}{
		{page - 4, 0}, {page - 1, 0}, {page, 0}, {page + 2, 1}, {page + 3, 1},
		{page + 4, NoDef}, {page - 5, NoDef}, {5 * page, NoDef},
	}
	for i, l := range loads {
		begin(load)
		r.SetLoadDef(int64(2+i), l.addr)
	}
	tr, err := r.Finish(nil, nil, mem.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range loads {
		if got := tr.MemDefOf(int64(2 + i)); got != l.want {
			t.Errorf("load at %#x: memory def %d, want %d", l.addr, got, l.want)
		}
	}
}
