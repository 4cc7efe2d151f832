package ddg

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

const dotKernelSrc = `
void main() {
  int x = 3;
  int y = x + 4;
  output(y);
}
`

// dotGolden is the expected rendering of dotKernelSrc with every even
// event ACE-highlighted and event 2 carrying predicted crash bits. The
// trace, the default memory layout and the DOT printer are all
// deterministic, so this is stable across runs and platforms.
const dotGolden = `digraph ddg {
  rankdir=BT;
  node [shape=box, fontname="monospace"];
  n0 [label="0: alloca", style=filled, fillcolor=lightyellow];
  n1 [label="1: store\n@0x7fffffddffe0"];
  n1 -> n0;
  n2 [label="2: alloca", style=filled, fillcolor=lightcoral];
  n3 [label="3: load\n@0x7fffffddffe0"];
  n3 -> n0;
  n3 -> n1 [style=dashed];
  n4 [label="4: add", style=filled, fillcolor=lightyellow];
  n4 -> n3;
  n5 [label="5: store\n@0x7fffffddffe4"];
  n5 -> n4;
  n5 -> n2;
  n6 [label="6: load\n@0x7fffffddffe4", style=filled, fillcolor=lightyellow];
  n6 -> n2;
  n6 -> n5 [style=dashed];
  n7 [label="7: output"];
  n7 -> n6;
  n8 [label="8: ret", style=filled, fillcolor=lightyellow];
}
`

func renderDotKernel(t *testing.T) string {
	t.Helper()
	tr := record(t, dotKernelSrc)
	g := New(tr)
	ace := make([]bool, tr.NumEvents())
	for i := range ace {
		ace[i] = i%2 == 0
	}
	return g.Dot(DotOptions{ACEMask: ace, CrashDefs: func(ev int64) uint64 {
		if ev == 2 {
			return 0xff
		}
		return 0
	}})
}

func TestDotGolden(t *testing.T) {
	got := renderDotKernel(t)
	if got != dotGolden {
		t.Errorf("DOT output diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, dotGolden)
	}
}

func TestDotDeterministicAcrossRuns(t *testing.T) {
	// Two fully independent compile+trace+render cycles must agree byte
	// for byte — no map-iteration or address nondeterminism may leak in.
	a := renderDotKernel(t)
	b := renderDotKernel(t)
	if a != b {
		t.Fatal("DOT rendering differs between identical runs")
	}
}

func TestDotNodeOrderingStable(t *testing.T) {
	out := renderDotKernel(t)
	re := regexp.MustCompile(`(?m)^  n(\d+) \[`)
	prev := -1
	count := 0
	for _, m := range re.FindAllStringSubmatch(out, -1) {
		var n int
		fmt.Sscanf(m[1], "%d", &n)
		if n <= prev {
			t.Fatalf("node n%d declared after n%d — ordering not stable", n, prev)
		}
		prev = n
		count++
	}
	if count != 9 {
		t.Fatalf("declared %d nodes, want 9", count)
	}
}

func TestDotHighlighting(t *testing.T) {
	out := renderDotKernel(t)
	if !strings.Contains(out, "n2 [label=\"2: alloca\", style=filled, fillcolor=lightcoral]") {
		t.Error("crash-bit node n2 not highlighted lightcoral")
	}
	if !strings.Contains(out, "fillcolor=lightyellow") {
		t.Error("no ACE highlighting present")
	}
	// Crash highlighting must win over ACE highlighting on the same node
	// (n2 is both even and a crash def).
	if strings.Contains(out, "n2 [label=\"2: alloca\", style=filled, fillcolor=lightyellow]") {
		t.Error("crash node rendered with ACE color")
	}
}

func TestDotMaxEventsWindow(t *testing.T) {
	tr := record(t, dotKernelSrc)
	g := New(tr)
	out := g.Dot(DotOptions{MaxEvents: 3})
	if strings.Contains(out, "n3 [") {
		t.Error("MaxEvents=3 rendered node 3")
	}
	if !strings.Contains(out, "n2 [") {
		t.Error("MaxEvents=3 dropped node 2")
	}
	// Edges into the truncated region must be dropped, not dangle.
	if strings.Contains(out, "-> n3") || strings.Contains(out, "n3 ->") {
		t.Error("edge references a truncated node")
	}
}
