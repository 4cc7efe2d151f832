package crash_test

import (
	"testing"

	"repro/internal/crash"
	"repro/internal/ddg"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/rangeprop"
)

// mmapKernelSrc allocates past the mmap threshold, so its data lives in a
// dedicated mmap VMA with guard pages — a segment shape the crash model
// must bound correctly.
const mmapKernelSrc = `
void main() {
  long *big = malloc(20000 * 8);
  int i;
  for (i = 0; i < 20000; i = i + 1) { big[i] = i; }
  long s = 0;
  for (i = 0; i < 20000; i = i + 16) { s = s + big[i]; }
  output(s);
  free(big);
}
`

func TestBoundaryOnMmapSegment(t *testing.T) {
	m, err := lang.Compile("mmapkernel", mmapKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exception != nil {
		t.Fatalf("golden run raised %v", res.Exception)
	}
	tr := res.Trace
	model := crash.NewModel()
	layout := mem.DefaultLayout()
	inMmap := 0
	for i := range tr.NumEvents() {
		e := tr.Event(i)
		if !e.IsMemAccess() || e.Addr < layout.MmapBase {
			continue
		}
		inMmap++
		b, ok := model.Boundary(tr, int64(i))
		if !ok {
			t.Fatalf("Boundary failed on mmap access at event %d", i)
		}
		if !b.Contains(int64(e.Addr)) {
			t.Fatalf("mmap address %#x outside bound [%#x, %#x]", e.Addr, b.Lo, b.Hi)
		}
		// The bound must be the mmap block, not the whole arena: the
		// 20000*8 = 160000-byte block occupies at most 40 pages.
		if b.Hi-b.Lo > 64*4096 {
			t.Fatalf("mmap bound too wide: %#x bytes", b.Hi-b.Lo)
		}
	}
	if inMmap == 0 {
		t.Fatal("kernel performed no mmap-segment accesses")
	}
}

func TestMmapGuardPageBitsPredicted(t *testing.T) {
	// Small-offset flips of an mmap-block address land in the guard page or
	// the unmapped arena, and the model must predict crashes there; the
	// predictions must hold under injection.
	m, err := lang.Compile("mmapkernel", mmapKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	g := ddg.New(tr)
	prop := rangeprop.Analyze(tr, g, g.ACEMask(), rangeprop.Config{})
	if prop.CrashBitCount == 0 {
		t.Fatal("no crash bits on the mmap kernel")
	}
	// Find a gep producing an mmap address and check a bit whose flip
	// escapes the block (bit 21 = 2 MiB jump, beyond the 160 KB block).
	layout := mem.DefaultLayout()
	checked := false
	for i := range tr.NumEvents() {
		e := tr.Event(i)
		if e.Instr.Op != ir.OpGEP || e.Result < layout.MmapBase {
			continue
		}
		mask := prop.DefMask(int64(i))
		if mask == 0 {
			continue
		}
		if mask&(1<<21) == 0 {
			t.Fatalf("2MiB-jump bit of mmap gep at event %d not predicted (mask=%#x)", i, mask)
		}
		// Verify by injection (deterministic layout).
		rec := fi.RunOne(m, res, fi.Target{Event: int64(i), Bit: 21},
			fi.Config{Seed: 1}, nil)
		if rec.Outcome != fi.OutcomeCrash {
			t.Fatalf("predicted mmap escape did not crash: %v", rec.Outcome)
		}
		checked = true
		break
	}
	if !checked {
		t.Fatal("no mmap gep with crash bits found")
	}
}
