package rangeprop

import (
	"repro/internal/ir"
	"repro/internal/trace"
)

// maxWalkOps is the number of operands a walk ever reaches per event: the
// access's address operand (0 or 1) and the operands Table III inverts
// (select's third is the highest).
const maxWalkOps = 3

// instrOps is what the walks read of one static instruction, taken from
// its *ir.Instr once so the hot loop reads a dense row instead.
type instrOps struct {
	op ir.Opcode
	// inj has bit k set when operand k carries a register value
	// (trace.InjectableOperand); a phi's one recorded operand always
	// does.
	inj uint8
	// ptrOp is the address operand of a load or store.
	ptrOp uint8
	// width holds trace.OperandWidth of operands 0..2.
	width [maxWalkOps]int32
	// stride is a GEP's Elem.Size(), zero for other instructions.
	stride int64
}

// operandRows returns the operand row of every instruction of an
// instruction table, in table order: a walker's operand table, indexed by
// its trace's InstrID column.
func operandRows(instrs []*ir.Instr) []instrOps {
	rows := make([]instrOps, len(instrs))
	for id, in := range instrs {
		e := &rows[id]
		e.op = in.Op
		for k := range maxWalkOps {
			if trace.InjectableOperand(in, k) || (in.Op == ir.OpPhi && k == 0) {
				e.inj |= 1 << k
			}
			e.width[k] = int32(trace.OperandWidth(in, k))
		}
		if in.Op == ir.OpStore {
			e.ptrOp = 1
		}
		if in.Op == ir.OpGEP {
			e.stride = in.Elem.Size()
		}
	}
	return rows
}
