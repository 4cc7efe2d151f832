package rangeprop

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/crash"
	"repro/internal/ddg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

func analyzeSrc(t *testing.T, src string, cfg Config) (*trace.Trace, *Result) {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Exception != nil {
		t.Fatalf("golden exception: %v", res.Exception)
	}
	tr := res.Trace
	g := ddg.New(tr)
	return tr, Analyze(tr, g, g.ACEMask(), cfg)
}

const arraySumSrc = `
void main() {
  long *a = malloc(64 * 8);
  int i;
  for (i = 0; i < 64; i = i + 1) { a[i] = i * 2; }
  long s = 0;
  for (i = 0; i < 64; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}
`

func TestAnalyzeFindsCrashBits(t *testing.T) {
	tr, res := analyzeSrc(t, arraySumSrc, Config{})
	if res.AccessesAnalyzed == 0 {
		t.Fatal("no accesses analyzed")
	}
	if res.CrashBitCount == 0 || res.UseCrashBitCount == 0 {
		t.Fatal("no crash bits found")
	}
	defs := 0
	res.EachDef(func(int64, uint64) { defs++ })
	if defs == 0 {
		t.Fatal("no def-level crash bits")
	}
	// Every address-producing gep def must have crash bits (flipping its
	// high bits escapes the heap segment).
	geps, gepsWithBits := 0, 0
	for i := range tr.NumEvents() {
		if tr.Instr(i).Op != ir.OpGEP {
			continue
		}
		geps++
		if res.DefMask(int64(i)) != 0 {
			gepsWithBits++
		}
	}
	if geps == 0 || gepsWithBits < geps*9/10 {
		t.Errorf("geps=%d with crash bits=%d; want nearly all", geps, gepsWithBits)
	}
}

func TestHighAddressBitsAreCrashBits(t *testing.T) {
	tr, res := analyzeSrc(t, arraySumSrc, Config{})
	for i := range tr.NumEvents() {
		e := tr.Event(i)
		if e.Instr.Op != ir.OpGEP {
			continue
		}
		mask := res.DefMask(int64(i))
		// Bits 40..63 of a heap address always escape any segment.
		for bit := 40; bit < 64; bit++ {
			if mask&(1<<uint(bit)) == 0 {
				t.Fatalf("gep at event %d: high bit %d not marked crash-causing (mask=%#x)",
					i, bit, mask)
			}
		}
		return
	}
	t.Fatal("no gep found")
}

func TestPredictedCrashBitsActuallyCrash(t *testing.T) {
	// Deterministic-layout precision must be very high: inject every 8th
	// predicted (def, bit) pair and demand > 90% crashes.
	src := arraySumSrc
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	tr, res := analyzeSrc(t, src, Config{})
	_ = tr
	total, crashed, tried := 0, 0, 0
	res.EachDef(func(def int64, mask uint64) {
		for bit := 0; bit < 64; bit++ {
			if mask&(1<<uint(bit)) == 0 {
				continue
			}
			total++
			if total%8 != 0 {
				continue
			}
			tried++
			inj := &interp.Injection{Event: def, Bit: bit}
			r, err := interp.Run(m, interp.Config{Injection: inj, MaxDynInstrs: 10_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if r.Exception != nil && r.Exception.Kind == interp.ExcSegFault {
				crashed++
			}
		}
	})
	if tried < 20 {
		t.Fatalf("too few predicted bits sampled: %d", tried)
	}
	// Not every predicted bit crashes: a flipped index is often seen by the
	// loop bound check too, which exits before the bad access executes —
	// the control-flow blindness that keeps the paper's precision at 92%
	// rather than 100%. Demand a strong majority.
	if rate := float64(crashed) / float64(tried); rate < 0.7 {
		t.Errorf("deterministic precision = %.2f (%d/%d), want > 0.7", rate, crashed, tried)
	}
}

func TestMaxDepthBoundsWork(t *testing.T) {
	_, shallow := analyzeSrc(t, arraySumSrc, Config{MaxDepth: 2})
	_, deep := analyzeSrc(t, arraySumSrc, Config{MaxDepth: 40})
	if shallow.UseCrashBitCount >= deep.UseCrashBitCount {
		t.Errorf("deeper walks found no additional crash bits: %d vs %d",
			shallow.UseCrashBitCount, deep.UseCrashBitCount)
	}
}

func TestExactAddressModeDiffers(t *testing.T) {
	// The exact oracle can only remove bits relative to the interval model
	// (a flip landing in another VMA is not a crash).
	_, interval := analyzeSrc(t, arraySumSrc, Config{})
	_, exact := analyzeSrc(t, arraySumSrc, Config{ExactAddress: true})
	if exact.UseCrashBitCount > interval.UseCrashBitCount {
		t.Errorf("exact mode found MORE crash bits (%d) than interval mode (%d)",
			exact.UseCrashBitCount, interval.UseCrashBitCount)
	}
}

func TestPredictedAccessors(t *testing.T) {
	_, res := analyzeSrc(t, arraySumSrc, Config{})
	found := false
	res.EachUse(func(u trace.Use, mask uint64) {
		if mask != res.UseMask(u) {
			t.Fatalf("%v: UseMask %#x, EachUse %#x", u, res.UseMask(u), mask)
		}
		for bit := 0; bit < 64; bit++ {
			if res.Predicted(u, bit) != (mask&(1<<uint(bit)) != 0) {
				t.Fatalf("%v bit %d: Predicted disagrees with mask %#x", u, bit, mask)
			}
		}
		found = true
	})
	if !found {
		t.Fatal("no crash bits to check")
	}
	if res.Predicted(trace.Use{Event: 1 << 40, Op: 9}, 3) {
		t.Error("Predicted true for unknown use")
	}
	if res.PredictedDef(1<<40, 3) {
		t.Error("PredictedDef true for unknown def")
	}
}

// Transfer-function property tests: for each invertible opcode, values
// inside the computed operand range keep the recomputed result within the
// target range.

func TestShiftRangeProperty(t *testing.T) {
	f := func(lo, hi, delta int32) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		r := crash.Bound{Lo: int64(lo), Hi: int64(hi)}
		s := shift(r, int64(delta))
		// op + delta within r  <=>  op within s... shift(r, -delta) maps
		// dest range to operand range for dest = op + delta.
		mid := (s.Lo + s.Hi) / 2
		for _, op := range []int64{s.Lo, mid, s.Hi} {
			dest := op - int64(delta) // because s = r shifted by +delta
			if dest < r.Lo || dest > r.Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDivRangeProperty(t *testing.T) {
	// dest = c*op must stay within r for every op inside divRange(r, c).
	f := func(lo, hi int32, c int16) bool {
		if c == 0 {
			return divRange(crash.Bound{Lo: int64(lo), Hi: int64(hi)}, 0).IsUnconstrained()
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		r := crash.Bound{Lo: int64(lo), Hi: int64(hi)}
		g := divRange(r, int64(c))
		if g.Empty() {
			return true // no valid operand values; nothing to verify
		}
		for _, op := range []int64{g.Lo, (g.Lo + g.Hi) / 2, g.Hi} {
			dest := int64(c) * op
			if dest < r.Lo || dest > r.Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFloorCeilDiv(t *testing.T) {
	tests := []struct {
		a, b, floor, ceil int64
	}{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{7, -2, -4, -3},
		{-7, -2, 3, 4},
		{6, 3, 2, 2},
		{0, 5, 0, 0},
	}
	for _, tt := range tests {
		if got := floorDiv(tt.a, tt.b); got != tt.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.floor)
		}
		if got := ceilDiv(tt.a, tt.b); got != tt.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.ceil)
		}
	}
}

func TestFloorCeilDivProperty(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		fd := floorDiv(int64(a), int64(b))
		cd := ceilDiv(int64(a), int64(b))
		exact := float64(a) / float64(b)
		return fd == int64(math.Floor(exact)) && cd == int64(math.Ceil(exact))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if satAdd(math.MaxInt64, 1) != math.MaxInt64 {
		t.Error("satAdd overflow not saturated")
	}
	if satAdd(math.MinInt64, -1) != math.MinInt64 {
		t.Error("satAdd underflow not saturated")
	}
	if satAdd(1, 2) != 3 {
		t.Error("satAdd basic")
	}
	if satSub(0, math.MinInt64) != math.MaxInt64 {
		t.Error("satSub of MinInt64 must saturate high")
	}
	if satSub(10, 4) != 6 {
		t.Error("satSub basic")
	}
	if satMul(math.MaxInt64, 2) != math.MaxInt64 {
		t.Error("satMul overflow not saturated")
	}
	if satMul(math.MaxInt64, -2) != math.MinInt64 {
		t.Error("satMul negative overflow not saturated")
	}
	if satMul(3, 4) != 12 || satMul(0, 99) != 0 {
		t.Error("satMul basic")
	}
}

func TestGEPInversionCoversIndexes(t *testing.T) {
	// A 2D-style access a[i*n+j]: flipping sign or high bits of the index
	// chain must be predicted, and small low-bit flips of j (which stay in
	// the allocation) must not.
	src := `
void main() {
  int n = 16;
  long *a = malloc(16 * 16 * 8);
  int i;
  int j;
  for (i = 0; i < n; i = i + 1) {
    for (j = 0; j < n; j = j + 1) {
      a[i * n + j] = i + j;
    }
  }
  output(a[0]);
  output(a[n * n - 1]);
  free(a);
}`
	tr, res := analyzeSrc(t, src, Config{})
	// Find the i*n+j add def (i32 add feeding a sext feeding the gep).
	for i := range tr.NumEvents() {
		e := tr.Event(i)
		if e.Instr.Op != ir.OpAdd || !e.Instr.Type().Equal(ir.I32) {
			continue
		}
		mask := res.DefMask(int64(i))
		if mask == 0 {
			continue
		}
		if mask&(1<<31) == 0 {
			t.Fatalf("sign bit of index add not predicted (mask=%#x)", mask)
		}
		if mask&1 != 0 {
			t.Fatalf("lowest bit of index add predicted to crash (mask=%#x)", mask)
		}
		return
	}
	t.Fatal("no index-add def with crash bits found")
}
