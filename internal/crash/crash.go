// Package crash implements the paper's crash model (§III-D, Algorithm 3):
// given the VMA snapshot and stack pointer recorded at a load or store, it
// computes the range of address values for which the access would NOT raise
// a segmentation fault. The model mirrors the Linux do_page_fault /
// expand_stack logic: for a non-stack segment the valid range is the VMA
// itself; for the stack it extends down to max(rlimit floor, SP − 64KiB −
// 128B) — the rule whose omission left the paper's first model at only ~85%
// accuracy.
package crash

import (
	"math"
	"math/bits"

	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Bound is an inclusive range [Lo, Hi] of signed 64-bit values. For address
// operands the signed interpretation is equivalent to the unsigned one
// (user-space addresses are below 2^63) while correctly treating bit-63
// flips as out of range.
type Bound struct {
	Lo, Hi int64
}

// Unconstrained is the bound that excludes nothing.
var Unconstrained = Bound{Lo: math.MinInt64, Hi: math.MaxInt64}

// Contains reports whether v lies within the bound.
func (b Bound) Contains(v int64) bool { return v >= b.Lo && v <= b.Hi }

// IsUnconstrained reports whether the bound excludes nothing.
func (b Bound) IsUnconstrained() bool { return b == Unconstrained }

// Empty reports an empty bound (every value escapes).
func (b Bound) Empty() bool { return b.Lo > b.Hi }

// Model predicts segmentation faults from recorded VMA state.
type Model struct {
	// StackRule applies the Linux stack-extension rule. Disabling it
	// reproduces the paper's naive first hypothesis ("any access outside
	// segment boundaries faults"), which mispredicted ~15% of
	// out-of-segment accesses.
	StackRule bool
}

// NewModel returns the full crash model (stack rule enabled).
func NewModel() *Model { return &Model{StackRule: true} }

// Boundary implements CHECK_BOUNDARY for the memory access event ev of tr:
// the range of values the address operand may take without faulting,
// accounting for the access width (an access of w bytes at addr requires
// addr+w-1 to stay inside the segment). ok is false when the event is not a
// memory access or its snapshot is missing.
func (m *Model) Boundary(tr *trace.Trace, ev int64) (Bound, bool) {
	if r := obs.Default(); r != nil {
		r.Counter("epvf_crash_boundaries_total").Inc()
	}
	a := tr.Acc[ev]
	if a < 0 {
		return Bound{}, false
	}
	vmas := tr.Snapshots[int(tr.VMAVer[a])]
	if vmas == nil {
		return Bound{}, false
	}
	in := tr.Instr(ev)
	write := in.Op == ir.OpStore
	lo, hi, ok := mem.Resolve(vmas, tr.SP[a], tr.Layout.StackTop, tr.Layout.StackRLimit,
		tr.Addr[a], write, m.StackRule)
	if !ok {
		return Bound{}, false
	}
	size := in.Elem.Size()
	return Bound{Lo: int64(lo), Hi: int64(hi) - size}, true
}

// WouldFault predicts whether an access at addr (with the width and
// direction of event ev) would fault, checking the full VMA set rather than
// a single interval. This is the exact per-bit oracle used by the
// exact-address ablation: a flipped address can land in a *different* valid
// VMA, which interval propagation cannot see.
func (m *Model) WouldFault(tr *trace.Trace, ev int64, addr uint64) bool {
	acc := tr.Acc[ev]
	if acc < 0 {
		return false
	}
	vmas := tr.Snapshots[int(tr.VMAVer[acc])]
	if vmas == nil {
		return false
	}
	in := tr.Instr(ev)
	write := in.Op == ir.OpStore
	size := uint64(in.Elem.Size())
	for _, a := range []uint64{addr, addr + size - 1} {
		if _, _, ok := mem.Resolve(vmas, tr.SP[acc], tr.Layout.StackTop, tr.Layout.StackRLimit,
			a, write, m.StackRule); !ok {
			return true
		}
	}
	return false
}

// MaskFromBound returns the bitmask of single-bit flips of value v (of the
// given width) that escape the bound under the signed interpretation — the
// "bits that make the value of op outside (new_max, new_min)" step of
// Algorithm 2.
//
// Below the sign bit, flipping bit k moves the signed value s by exactly
// 2^k: up when the bit is clear, down when it is set. The move grows with
// k, so in each direction the flips that cross the far side of the bound
// are all k from one threshold up, and those still short of the near side
// are all k below another; each threshold is the bit length of a distance
// between s and a bound.
func MaskFromBound(v uint64, width int, b Bound) uint64 {
	if b.IsUnconstrained() || width <= 0 {
		return 0
	}
	s := ir.SignExtend(v, width)
	low := uint64(1)<<uint(width-1) - 1 // the bits below the sign bit
	up := fromBit(overLen(b.Hi, s)) | belowBit(shortLen(b.Lo, s))
	down := fromBit(overLen(s, b.Lo)) | belowBit(shortLen(s, b.Hi))
	m := (^v&up | v&down) & low

	// The sign bit weighs -2^(width-1). The flipped value is always
	// representable, so the wrapping int64 sum is exact (at width 64 the
	// weight is math.MinInt64, its own negation).
	sign := uint64(1) << uint(width-1)
	w := -int64(sign)
	f := s + w
	if v&sign != 0 {
		f = s - w
	}
	if f < b.Lo || f > b.Hi {
		m |= sign
	}
	return m
}

// overLen returns the least k with x + 2^k > hi: the bit length of hi - x,
// or 0 when x > hi already. Called as overLen(x, lo) it gives the least k
// with x - 2^k < lo.
func overLen(hi, x int64) int {
	if x > hi {
		return 0
	}
	return bits.Len64(uint64(hi) - uint64(x))
}

// shortLen returns the number of k with x + 2^k < lo: the bit length of
// lo - x - 1, or 0 when x >= lo. Called as shortLen(x, hi) it counts the k
// with x - 2^k > hi.
func shortLen(lo, x int64) int {
	if x >= lo {
		return 0
	}
	return bits.Len64(uint64(lo) - uint64(x) - 1)
}

// fromBit returns the mask of bits k >= n; belowBit the mask of bits k < n.
func fromBit(n int) uint64  { return ^uint64(0) << uint(n) }
func belowBit(n int) uint64 { return uint64(1)<<uint(n) - 1 }

// MaskExact returns the bitmask of single-bit flips of the address operand
// of event ev that the exact VMA oracle predicts to fault.
func (m *Model) MaskExact(tr *trace.Trace, ev int64, addr uint64, width int) uint64 {
	var mask uint64
	for bit := 0; bit < width; bit++ {
		if m.WouldFault(tr, ev, addr^(1<<uint(bit))) {
			mask |= 1 << uint(bit)
		}
	}
	return mask
}

// PopCount returns the number of set bits in a crash mask.
func PopCount(mask uint64) int { return bits.OnesCount64(mask) }
