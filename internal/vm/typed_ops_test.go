package vm_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
)

// The VM fixes at compile time what the walker reads from an instruction
// per event: a conversion's kind and widths, a float operation's width
// and an access's alignment rule. The tables below run every conversion
// opcode on every (from, to) type pair ir.Verify accepts among i1, i8,
// i16, i24, i32, i56, i64, float, double and a pointer; every float
// arithmetic and compare op at both widths; and loads and stores of every
// scalar width at every offset under every alignment policy. Operands are
// edge values: zero and negative zero, sign bits, all ones, NaNs, the
// infinities, subnormals and floats beyond fptosi's clamp.

var (
	typedInts   = []int{1, 8, 16, 24, 32, 56, 64}
	typedFloats = []int{32, 64}
)

// typedType is one operand type of the table: an integer width, a float
// width, or (bits 0) a pointer.
type typedType struct {
	float bool
	bits  int
}

func (t typedType) String() string {
	switch {
	case t.float && t.bits == 32:
		return "float"
	case t.float:
		return "double"
	case t.bits == 0:
		return "i8*"
	}
	return fmt.Sprintf("i%d", t.bits)
}

func (t typedType) size() int {
	if !t.float && t.bits == 0 {
		return 8
	}
	return (t.bits + 7) / 8
}

func typedTypes() []typedType {
	var ts []typedType
	for _, w := range typedInts {
		ts = append(ts, typedType{bits: w})
	}
	for _, w := range typedFloats {
		ts = append(ts, typedType{float: true, bits: w})
	}
	return append(ts, typedType{})
}

// intEdges returns edge bit patterns of a w-bit integer: zero, one, the
// sign bit alone and with one, the largest positive value, all ones and
// alternating patterns. From 56 bits on it adds a value, and its
// negation, that rounds to another float when rounded to a double first
// and then to a float (as sitofp to float does) than when rounded once.
func intEdges(w int) []uint64 {
	mask := ^uint64(0) >> (64 - w)
	sign := uint64(1) << (w - 1)
	vals := []uint64{0, 1, sign, sign | 1, sign - 1, mask, 0x5a5a5a5a5a5a5a5a & mask, 0xa5a5a5a5a5a5a5a5 & mask}
	if w >= 56 {
		top := w - 2
		v := uint64(1)<<top | uint64(1)<<(top-23) | (uint64(1)<<(top-24) - 1)
		vals = append(vals, v, -v&mask)
	}
	return dedupe(vals)
}

// floatEdges returns edge bit patterns of a w-bit float.
func floatEdges(w int) []uint64 {
	fs := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 2.5, -2.5, 0.49999999999999994, 127.5, -128.5,
		8388607.5, -8388609, 2147483647.5, -2147483649, 1 << 31, 1 << 53, 1<<53 + 1,
		1 << 55, -(1 << 55), 1 << 63, -(1 << 63), 1e19, -1e19, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat32, math.SmallestNonzeroFloat32, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	}
	var vals []uint64
	for _, f := range fs {
		if w == 32 {
			vals = append(vals, uint64(math.Float32bits(float32(f))))
		} else {
			vals = append(vals, math.Float64bits(f))
		}
	}
	// NaNs with the sign bit set and with a payload.
	if w == 32 {
		vals = append(vals, 0xffc00001, 0x7f800001)
	} else {
		vals = append(vals, 0xfff8000000000001, 0x7ff0000000000001)
	}
	return dedupe(vals)
}

func dedupe(vals []uint64) []uint64 {
	seen := map[uint64]bool{}
	out := vals[:0]
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// typedEdges returns the edge values of t (a pointer's are a few
// addresses).
func typedEdges(t typedType) []uint64 {
	switch {
	case t.float:
		return floatEdges(t.bits)
	case t.bits == 0:
		return []uint64{0, 1 << 12, 0x7fffffffeff8, ^uint64(0)}
	}
	return intEdges(t.bits)
}

// typedBody builds IR lines into sb.
type typedBody struct {
	sb strings.Builder
	n  int
}

// value emits the lines that put bits into a fresh register of type t
// and returns the register: an integer constant through an add of zero, a
// float or pointer through a bitcast or inttoptr of its bits.
func (b *typedBody) value(t typedType, bits uint64) string {
	b.n++
	r := fmt.Sprintf("%%v%d", b.n)
	switch {
	case t.float:
		fmt.Fprintf(&b.sb, "  %s = bitcast i%d %d to %s\n", r, t.bits, int64(bits), t)
	case t.bits == 0:
		fmt.Fprintf(&b.sb, "  %s = inttoptr i64 %d to i8*\n", r, int64(bits))
	default:
		fmt.Fprintf(&b.sb, "  %s = add %s %d, 0\n", r, t, ir.SignExtend(bits, t.bits))
	}
	return r
}

// emit emits "%rN = <rhs>" and an output of it, of type t.
func (b *typedBody) emit(t typedType, rhs string) {
	b.n++
	fmt.Fprintf(&b.sb, "  %%r%d = %s\n  output %s %%r%d\n", b.n, rhs, t, b.n)
}

func (b *typedBody) module() string {
	return "define void @main() {\nentry:\n" + b.sb.String() + "  ret void\n}\n"
}

// convertAccepts reports whether ir.Verify accepts op from from to to.
func convertAccepts(op string, from, to typedType) bool {
	isInt := func(t typedType) bool { return !t.float && t.bits > 0 }
	isPtr := func(t typedType) bool { return !t.float && t.bits == 0 }
	switch op {
	case "trunc":
		return isInt(from) && isInt(to) && to.bits < from.bits
	case "zext", "sext":
		return isInt(from) && isInt(to) && to.bits > from.bits
	case "fptosi":
		return from.float && isInt(to)
	case "sitofp":
		return isInt(from) && to.float
	case "fptrunc":
		return from.float && to.float && to.bits < from.bits
	case "fpext":
		return from.float && to.float && to.bits > from.bits
	case "bitcast":
		return from.size() == to.size()
	case "ptrtoint":
		return isPtr(from) && isInt(to)
	case "inttoptr":
		return isInt(from) && isPtr(to)
	}
	return false
}

type typedCase struct{ name, ir string }

// typedOpCases returns one module per conversion (op, from, to), per float
// arithmetic op and width, and per float compare predicate and width.
func typedOpCases() []typedCase {
	var cases []typedCase
	for _, op := range []string{"trunc", "zext", "sext", "fptosi", "sitofp", "fptrunc", "fpext", "bitcast", "ptrtoint", "inttoptr"} {
		for _, from := range typedTypes() {
			for _, to := range typedTypes() {
				if !convertAccepts(op, from, to) {
					continue
				}
				var b typedBody
				for _, v := range typedEdges(from) {
					x := b.value(from, v)
					b.emit(to, fmt.Sprintf("%s %s %s to %s", op, from, x, to))
				}
				cases = append(cases, typedCase{fmt.Sprintf("%s_%s_%s", op, from, to), b.module()})
			}
		}
	}
	for _, w := range typedFloats {
		t := typedType{float: true, bits: w}
		edges := floatEdges(w)
		for _, op := range []string{"fadd", "fsub", "fmul", "fdiv", "fcmp oeq", "fcmp one", "fcmp olt", "fcmp ole", "fcmp ogt", "fcmp oge"} {
			rt := t
			if strings.HasPrefix(op, "fcmp") {
				rt = typedType{bits: 1}
			}
			var b typedBody
			for _, x := range edges {
				for _, y := range edges {
					xa, ya := b.value(t, x), b.value(t, y)
					b.emit(rt, fmt.Sprintf("%s %s %s, %s", op, t, xa, ya))
				}
			}
			cases = append(cases, typedCase{strings.ReplaceAll(op, " ", "_") + "_" + t.String(), b.module()})
		}
	}
	return cases
}

// TestDifferentialTypedOps compares the VM's width-specialized
// conversion, float arithmetic and float compare vops with the walker,
// event by event, on every case of typedOpCases.
func TestDifferentialTypedOps(t *testing.T) {
	cfg := interp.Config{Record: true}
	cases := typedOpCases()
	ops := map[string]int{}
	for _, tc := range cases {
		m, err := ir.Parse(tc.ir)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		walker, vmr := runBoth(t, m, cfg)
		if walker == nil {
			t.Fatalf("%s: fatal error on both engines", tc.name)
		}
		diffResults(t, tc.name, walker, vmr)
		if walker.Exception != nil || len(walker.Outputs) == 0 {
			t.Fatalf("%s: exception %v, %d outputs", tc.name, walker.Exception, len(walker.Outputs))
		}
		ops[tc.name[:strings.IndexByte(tc.name, '_')]]++
	}
	// Pairs per conversion among the 10 types; the float ops run at both
	// widths.
	want := map[string]int{
		"trunc": 21, "zext": 21, "sext": 21, "fptosi": 14, "sitofp": 14, "fptrunc": 1, "fpext": 1,
		"bitcast": 20, "ptrtoint": 7, "inttoptr": 7, "fadd": 2, "fsub": 2, "fmul": 2, "fdiv": 2, "fcmp": 12,
	}
	for op, n := range want {
		if ops[op] != n {
			t.Errorf("%d %s cases, want %d", ops[op], op, n)
		}
	}
}

// TestDifferentialAlignedAccesses compares the VM's per-run alignment
// rule with the walker's per-access check: a load, and a store then a
// load, of every scalar type at each offset of a 16-byte-aligned block,
// under the default policy and each interp.Align* policy. Beyond matching
// the walker, each access must trap exactly when the policy says: wider
// than a byte and its address off its natural alignment (AlignNatural),
// off min(alignment, 4) (AlignFourByte, the default), or never
// (AlignNone).
// The odd integer widths ask for alignments that are no power of two: an
// i24 for 3, an i40, i48 or i56 for 5, 6 or 7 (4 under AlignFourByte).
func TestDifferentialAlignedAccesses(t *testing.T) {
	types := []typedType{{float: true, bits: 32}, {float: true, bits: 64}, {}}
	for _, w := range []int{1, 8, 16, 24, 32, 40, 48, 56, 64} {
		types = append(types, typedType{bits: w})
	}
	traps := 0
	for _, ty := range types {
		for _, store := range []bool{false, true} {
			for off := range 8 {
				var b typedBody
				fmt.Fprintf(&b.sb, "  %%buf = malloc i8*, i64 64\n  %%p = getelementptr i8, i8* %%buf, i64 %d\n  %%q = bitcast i8* %%p to %s*\n", off, ty)
				b.emit(typedType{bits: 64}, "ptrtoint i8* %p to i64")
				if store {
					edges := typedEdges(ty)
					v := b.value(ty, edges[len(edges)-1])
					fmt.Fprintf(&b.sb, "  store %s %s, %s* %%q\n", ty, v, ty)
				}
				b.emit(ty, fmt.Sprintf("load %s, %s* %%q", ty, ty))
				m, err := ir.Parse(b.module())
				if err != nil {
					t.Fatalf("%s +%d: parse: %v", ty, off, err)
				}
				size := ty.size()
				for _, pol := range []interp.AlignPolicy{0, interp.AlignFourByte, interp.AlignNatural, interp.AlignNone} {
					name := fmt.Sprintf("%s_store%v_%d_align%d", ty, store, off, pol)
					walker, vmr := runBoth(t, m, interp.Config{Record: true, Align: pol})
					diffResults(t, name, walker, vmr)
					req := size
					switch pol {
					case interp.AlignNone:
						req = 1
					case interp.AlignNatural:
					default:
						req = min(size, 4)
					}
					addr := walker.Outputs[0].Bits
					want := size > 1 && addr%uint64(req) != 0
					if e := vmr.Exception; (e != nil) != want || e != nil && e.Kind != interp.ExcMisaligned {
						t.Fatalf("%s: exception %v, want a misaligned trap: %v", name, e, want)
					}
					if want {
						traps++
					}
				}
			}
		}
	}
	t.Logf("%d misaligned traps", traps)
}
