package ddg

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

// record compiles and traces a MiniC program.
func record(t *testing.T, src string) *trace.Trace {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Exception != nil || res.Hang {
		t.Fatalf("abnormal golden run: exc=%v hang=%v", res.Exception, res.Hang)
	}
	return res.Trace
}

const deadCodeSrc = `
void main() {
  int live = 2;
  int dead = 7;          // never reaches the output
  int i;
  for (i = 0; i < 4; i = i + 1) {
    live = live * 2;
    dead = dead + 3;
  }
  output(live);
}
`

func TestACEMaskExcludesDeadData(t *testing.T) {
	tr := record(t, deadCodeSrc)
	g := New(tr)
	// Outputs-only rooting: the "dead" accumulator chain must be excluded.
	mask := g.ACEMaskOutputsOnly()
	deadMuls := 0
	liveMuls := 0
	for i := range tr.NumEvents() {
		e := tr.Event(i)
		switch e.Instr.Op {
		case ir.OpMul:
			if mask[i] {
				liveMuls++
			}
		case ir.OpAdd:
			// dead = dead + 3 adds; loop increment i+1 also an add. The
			// dead adds must not be ACE under output-only rooting.
			if e.Instr.Type().Equal(ir.I32) && !mask[i] {
				deadMuls++
			}
		}
	}
	if liveMuls != 4 {
		t.Errorf("live multiply instances in ACE graph = %d, want 4", liveMuls)
	}
	if deadMuls == 0 {
		t.Error("no dead adds excluded from the output-rooted ACE graph")
	}
	// The full (branch-rooted) mask is a superset.
	full := g.ACEMask()
	for i := range mask {
		if mask[i] && !full[i] {
			t.Fatal("branch-rooted ACE mask is not a superset of output-rooted")
		}
	}
	if CountMask(full) <= CountMask(mask) {
		t.Error("branch roots added no events on a loop program")
	}
}

func TestACEMaskClosedUnderPreds(t *testing.T) {
	tr := record(t, deadCodeSrc)
	g := New(tr)
	mask := g.ACEMask()
	var preds []int64
	for i := range tr.NumEvents() {
		if !mask[i] {
			continue
		}
		preds = g.AppendPreds(preds[:0], int64(i))
		for _, p := range preds {
			if !mask[p] {
				t.Fatalf("ACE event %d has non-ACE predecessor %d", i, p)
			}
		}
	}
}

func TestPredsPointBackward(t *testing.T) {
	tr := record(t, deadCodeSrc)
	g := New(tr)
	var preds []int64
	for i := range tr.NumEvents() {
		preds = g.AppendPreds(preds[:0], int64(i))
		for _, p := range preds {
			if p >= int64(i) {
				t.Fatalf("event %d has forward predecessor %d", i, p)
			}
		}
	}
}

func TestOutputDefsRootTheGraph(t *testing.T) {
	tr := record(t, `void main() { int x = 3; output(x * 7); }`)
	g := New(tr)
	roots := g.OutputDefs()
	if len(roots) == 0 {
		t.Fatal("no output roots")
	}
	mask := g.ACEMaskFromRoots(roots)
	// The multiply feeding the output must be in the graph.
	found := false
	for i := range tr.NumEvents() {
		if tr.Instr(i).Op == ir.OpMul && mask[i] {
			found = true
		}
	}
	if !found {
		t.Error("output-rooted graph misses the producing multiply")
	}
}

func TestBranchRootsFindAllCondBrs(t *testing.T) {
	tr := record(t, deadCodeSrc)
	g := New(tr)
	want := 0
	for i := range tr.NumEvents() {
		if tr.Instr(i).Op == ir.OpCondBr {
			want++
		}
	}
	if got := len(g.BranchRoots()); got != want {
		t.Errorf("BranchRoots = %d, want %d", got, want)
	}
	if want == 0 {
		t.Error("test program has no conditional branches")
	}
}

func TestPartialACEMaskMonotonic(t *testing.T) {
	tr := record(t, `
void main() {
  int i;
  int *a = malloc(64 * 4);
  for (i = 0; i < 64; i = i + 1) { a[i] = i * 3; }
  for (i = 0; i < 64; i = i + 1) { output(a[i]); }
  free(a);
}`)
	g := New(tr)
	m10, end10 := g.PartialACEMask(0.10)
	m50, end50 := g.PartialACEMask(0.50)
	full := g.ACEMask()
	if end10 >= end50 {
		t.Errorf("prefix ends not increasing: %d vs %d", end10, end50)
	}
	c10, c50, cf := CountMask(m10), CountMask(m50), CountMask(full)
	if !(c10 < c50 && c50 < cf) {
		t.Errorf("partial masks not monotonic: %d, %d, %d", c10, c50, cf)
	}
	// Sampled masks must be subsets of the full mask.
	for i := range m10 {
		if m10[i] && !full[i] {
			t.Fatal("partial mask contains non-ACE event")
		}
	}
}

func TestComputeStats(t *testing.T) {
	tr := record(t, deadCodeSrc)
	g := New(tr)
	s := g.ComputeStats()
	if s.Events != tr.NumEvents() {
		t.Errorf("Events = %d, want %d", s.Events, tr.NumEvents())
	}
	if s.RegisterDefs == 0 || s.MemNodes == 0 || s.MemAccesses == 0 {
		t.Errorf("zero counts: %+v", s)
	}
	if s.RegisterDefs >= s.Events {
		t.Errorf("defs (%d) must be fewer than events (%d): stores/branches define nothing",
			s.RegisterDefs, s.Events)
	}
	if s.MemNodes > s.MemAccesses {
		t.Errorf("memory versions (%d) cannot exceed accesses (%d)", s.MemNodes, s.MemAccesses)
	}
}

func TestVirtualEdgeConnectsAddressRegisters(t *testing.T) {
	// The pointer operand chain of an ACE load must be in the ACE graph —
	// the role of the paper's virtual edges (Fig. 3: r5, r6, r7 are ACE).
	tr := record(t, `
void main() {
  int *a = malloc(16 * 4);
  int i;
  for (i = 0; i < 16; i = i + 1) { a[i] = i; }
  output(a[7]);
  free(a);
}`)
	g := New(tr)
	mask := g.ACEMaskOutputsOnly()
	gepACE := false
	for i := range tr.NumEvents() {
		e := tr.Event(i)
		if e.Instr.Op == ir.OpGEP && mask[i] {
			gepACE = true
		}
	}
	if !gepACE {
		t.Error("no address computation (gep) present in the ACE graph")
	}
}

func TestDotRendering(t *testing.T) {
	tr := record(t, `void main() {
  int a[4];
  a[1] = 5;
  output(a[1] * 2);
}`)
	g := New(tr)
	mask := g.ACEMask()
	dot := g.Dot(DotOptions{ACEMask: mask})
	for _, want := range []string{"digraph ddg", "store", "load", "->", "style=dashed", "fillcolor=lightyellow"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Capped rendering stays small.
	short := g.Dot(DotOptions{MaxEvents: 3})
	if strings.Count(short, "n3 ") > 0 {
		t.Error("MaxEvents cap not honored")
	}
}
