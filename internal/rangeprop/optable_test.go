package rangeprop

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

// TestOperandTableMatchesInstrs: every row of the operand table says what
// the trace package's operand rules and the instruction itself say, for
// every instruction of the kernels and of 20 random programs.
func TestOperandTableMatchesInstrs(t *testing.T) {
	var mods []*ir.Module
	for _, b := range bench.All() {
		mods = append(mods, b.MustModule(1))
	}
	for seed := range 20 {
		m, err := lang.Compile(fmt.Sprintf("random%d", seed), bench.RandomProgram(rand.New(rand.NewSource(int64(seed)))))
		if err != nil {
			t.Fatalf("random%d: %v", seed, err)
		}
		mods = append(mods, m)
	}
	for _, m := range mods {
		instrs := m.Instrs()
		rows := operandRows(instrs)
		for id, in := range instrs {
			row := rows[id]
			where := fmt.Sprintf("%s: instruction %d (%v %s)", m.Name, id, in.Op, in.Ident())
			if row.op != in.Op {
				t.Fatalf("%s: opcode %v, want %v", where, row.op, in.Op)
			}
			for k := range maxWalkOps {
				inj := trace.InjectableOperand(in, k) || (in.Op == ir.OpPhi && k == 0)
				if got := row.inj&(1<<k) != 0; got != inj {
					t.Fatalf("%s: operand %d injectable %v, want %v", where, k, got, inj)
				}
				if w := trace.OperandWidth(in, k); int(row.width[k]) != w {
					t.Fatalf("%s: operand %d width %d, want %d", where, k, row.width[k], w)
				}
			}
			ptrOp, stride := 0, int64(0)
			if in.Op == ir.OpStore {
				ptrOp = 1
			}
			if in.Op == ir.OpGEP {
				stride = in.Elem.Size()
			}
			if int(row.ptrOp) != ptrOp || row.stride != stride {
				t.Fatalf("%s: address operand %d and stride %d, want %d and %d", where, row.ptrOp, row.stride, ptrOp, stride)
			}
		}
	}
}
