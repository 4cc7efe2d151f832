package trace

import (
	"testing"

	"repro/internal/ir"
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
