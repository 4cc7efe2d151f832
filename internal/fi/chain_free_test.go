//go:build go1.24

// The weak package this test watches the chain with arrived in Go 1.24;
// the module's go line is older, so older toolchains skip the file.

package fi

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// TestFinishedRunnerFreesChain guards the machine pool against keeping a
// finished campaign alive: once a runner that restored snapshots is
// dropped, one collection frees its checkpoint states. A pooled machine
// that kept its last run's convergence cursor, address space or hook
// would hold the whole chain through that collection, since sync.Pool
// keeps its items for one more cycle, and a process running campaigns
// back to back would then hold two chains at its peak. The runner's
// program stays reachable meanwhile, as a program reused across
// campaigns would.
func TestFinishedRunnerFreesChain(t *testing.T) {
	b, _ := bench.Get("lulesh")
	m := b.MustModule(1)
	g, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	prog, state := runAndDrop(t, m, g)
	runtime.GC()
	if state.Value() != nil {
		t.Fatal("a checkpoint of a dropped runner survived a collection")
	}
	runtime.KeepAlive(prog)
}

// runAndDrop runs injections on a snapshot runner over m and returns its
// program and a weak pointer to one of its checkpoints, dropping the rest.
func runAndDrop(t *testing.T, m *ir.Module, g *interp.Result) (*vm.Program, weak.Pointer[vm.State]) {
	t.Helper()
	r, err := NewRunner(m, g, Config{Seed: 2016})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r.EnableSnapshots(snapshot.Config{}); err != nil || !ok {
		t.Fatalf("EnableSnapshots = %v, %v", ok, err)
	}
	cps := r.chain.Checkpoints()
	state := weak.Make(cps[len(cps)/2])
	r.RunRange(0, 64, 2)
	return r.prog, state
}
