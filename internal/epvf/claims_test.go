package epvf

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

// TestPaperClaimsHold checks, on every Table IV kernel and on 20
// randomized programs, three properties the model guarantees by
// construction:
//
//   - ePVF <= PVF: Eq. 2 only subtracts crash bits from the ACE bits;
//   - every nonzero predicted crash mask belongs to an ACE register
//     definition and fits inside its width: the propagation model walks
//     the ACE graph backward from memory accesses, over register bits;
//   - CrashBitCount, Eq. 2's subtrahend, is the popcount sum of the
//     per-definition masks DefClasses exports.
func TestPaperClaimsHold(t *testing.T) {
	type program struct {
		name string
		m    *ir.Module
	}
	var progs []program
	for _, b := range bench.All() {
		progs = append(progs, program{b.Name, b.MustModule(1)})
	}
	for seed := range 20 {
		name := fmt.Sprintf("random%d", seed)
		m, err := lang.Compile(name, bench.RandomProgram(rand.New(rand.NewSource(int64(seed)))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs = append(progs, program{name, m})
	}
	for _, p := range progs {
		a, _, err := AnalyzeModule(p.m, Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if a.EPVF() > a.PVF() {
			t.Errorf("%s: ePVF %.4f > PVF %.4f", p.name, a.EPVF(), a.PVF())
		}
		tr := a.Trace
		a.CrashResult.EachDef(func(ev int64, mask uint64) {
			in := tr.Instr(ev)
			switch w := trace.DefWidth(in); {
			case !trace.IsDef(in):
				t.Errorf("%s: event %d (%s) defines no register but has crash mask %#x", p.name, ev, in.Op, mask)
			case !a.ACEMask[ev]:
				t.Errorf("%s: event %d (%s) is not ACE but has crash mask %#x", p.name, ev, in.Op, mask)
			case w < 64 && mask>>w != 0:
				t.Errorf("%s: event %d (%s) crash mask %#x exceeds its %d-bit register", p.name, ev, in.Op, mask, w)
			}
		})
		var sum int64
		for _, d := range a.DefClasses() {
			sum += int64(bits.OnesCount64(d.CrashMask))
		}
		if sum != a.CrashResult.CrashBitCount {
			t.Errorf("%s: DefClasses hold %d crash bits, CrashBitCount is %d", p.name, sum, a.CrashResult.CrashBitCount)
		}
	}
}
