package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vm"
)

// poolRun is one run of TestPooledRunsMatchFresh: an injection under one
// of two layouts, from scratch or resumed from a checkpoint of that
// layout's chain with convergence.
type poolRun struct {
	layout int
	from   int // checkpoint index, or -1 for a scratch run
	event  int64
	bit    int
}

// poolLayouts are the layouts the runs alternate between. The second moves
// the data segments as well as the heap and stack, so the global addresses
// in the machines' fixed register tails differ between the two.
func poolLayouts() []mem.Layout {
	moved := mem.DefaultLayout()
	moved.RODataBase += 3 * mem.PageSize
	moved.DataBase += 5 * mem.PageSize
	moved.HeapBase += 7 * mem.PageSize
	moved.StackTop -= 11 * mem.PageSize
	return []mem.Layout{mem.DefaultLayout(), moved}
}

// TestPooledRunsMatchFresh checks machine, frame and page reuse: one
// Program runs a shuffled mix of scratch and resumed injections under two
// alternating layouts, and every run's Result equals the same run on a
// freshly compiled Program, whose pools are empty. It covers the 11
// kernels, 20 random programs and a loop that can hang, and the mix must
// include segfaults, misaligned accesses, hangs at hang factor 3,
// converged runs, SDC runs and runs that emit outputs.
func TestPooledRunsMatchFresh(t *testing.T) {
	mods := map[string]*ir.Module{}
	for _, b := range bench.All() {
		mods[b.Name] = b.MustModule(1)
	}
	for seed := range 20 {
		name := fmt.Sprintf("random%d", seed)
		m, err := lang.Compile(name, bench.RandomProgram(rand.New(rand.NewSource(int64(seed)))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mods[name] = m
	}
	// A loop whose bound lives in memory: a flip there can hang the run.
	loop, err := lang.Compile("loopbound", `
void main() {
  int i = 0;
  int n = 1000;
  int s = 0;
  while (i < n) { s = s + i; i = i + 1; }
  output(s);
}`)
	if err != nil {
		t.Fatal(err)
	}
	mods["loopbound"] = loop
	perLayout := 8
	if raceEnabled {
		perLayout = 3
	}
	kinds := map[string]int{}
	for name, m := range mods {
		checkPooled(t, name, m, perLayout, kinds)
	}
	t.Logf("%d programs, runs by kind: %v", len(mods), kinds)
	for _, k := range []string{"segfault", "misaligned", "hang", "converged", "sdc", "outputs"} {
		if kinds[k] == 0 {
			t.Errorf("no %s run in the mix", k)
		}
	}
}

// checkPooled runs perLayout scratch and perLayout resumed injections per
// layout of m on one pooled Program, in shuffled order, against fresh
// Programs, and tallies the kinds of runs it saw.
func checkPooled(t *testing.T, name string, m *ir.Module, perLayout int, kinds map[string]int) {
	t.Helper()
	pooled := compileProg(t, m)
	tr := walkerRun(t, m, interp.Config{Record: true}).Trace
	var defs []int64
	for i := range tr.NumEvents() {
		if trace.DefWidth(tr.Instr(i)) > 0 {
			defs = append(defs, i)
		}
	}
	layouts := poolLayouts()
	stride := max(1, tr.NumEvents()/16)
	cfgs := make([]interp.Config, len(layouts))
	goldens := make([]*interp.Result, len(layouts))
	chains := make([][]*vm.State, len(layouts))
	for l, layout := range layouts {
		g, err := compileProg(t, m).Run(interp.Config{Layout: layout})
		if err != nil {
			t.Fatalf("%s: golden: %v", name, err)
		}
		goldens[l] = g
		cfgs[l] = interp.Config{Layout: layout, MaxDynInstrs: 3 * g.DynInstrs}
		if chains[l], err = pooled.Checkpoints(cfgs[l], stride); err != nil {
			t.Fatalf("%s: checkpoints: %v", name, err)
		}
	}
	rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
	var runs []poolRun
	for l := range layouts {
		for k := range 2 * perLayout {
			ev := defs[rng.Intn(len(defs))]
			w := trace.DefWidth(tr.Instr(ev))
			r := poolRun{layout: l, from: -1, event: ev, bit: rng.Intn(w)}
			switch k % 3 {
			case 1:
				// A low bit of an address misaligns it.
				r.bit = 1 + rng.Intn(2)
			case 2:
				// The sign bit of a loop counter sends it round the long way.
				r.bit = w - 1
			}
			if k >= perLayout {
				r.from = len(chains[l]) - 1
				for chains[l][r.from].Event() > r.event {
					r.from--
				}
			}
			runs = append(runs, r)
		}
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	for _, r := range runs {
		label := fmt.Sprintf("%s/layout%d/from%d/ev%d/bit%d", name, r.layout, r.from, r.event, r.bit)
		got := runPooled(t, label, pooled, chains[r.layout], goldens[r.layout], cfgs[r.layout], r)
		fresh := compileProg(t, m)
		var freshChain []*vm.State
		if r.from >= 0 {
			var err error
			if freshChain, err = fresh.Checkpoints(cfgs[r.layout], stride); err != nil {
				t.Fatalf("%s: fresh checkpoints: %v", label, err)
			}
		}
		want := runPooled(t, label, fresh, freshChain, goldens[r.layout], cfgs[r.layout], r)
		if got.Hang != want.Hang || got.DynInstrs != want.DynInstrs ||
			got.Executed != want.Executed || got.Converged != want.Converged {
			t.Fatalf("%s: pooled hang=%v dyn=%d executed=%d converged=%v, fresh %v %d %d %v", label,
				got.Hang, got.DynInstrs, got.Executed, got.Converged,
				want.Hang, want.DynInstrs, want.Executed, want.Converged)
		}
		diffExc(t, label, want.Exception, got.Exception)
		diffOutputs(t, label, want.Outputs, got.Outputs)
		tallyKind(kinds, goldens[r.layout], got)
	}
}

// runPooled executes r on prog: from scratch, or resumed from chain with
// convergence against golden.
func runPooled(t *testing.T, label string, prog *vm.Program, chain []*vm.State, golden *interp.Result, cfg interp.Config, r poolRun) *interp.Result {
	t.Helper()
	inj := &interp.Injection{Event: r.event, Bit: r.bit}
	var res *interp.Result
	var err error
	if r.from < 0 {
		cfg.Injection = inj
		res, err = prog.Run(cfg)
	} else {
		res, err = vm.Resume(chain[r.from], vm.ResumeOptions{
			Injection:   inj,
			Convergence: &vm.Convergence{Golden: golden, Checkpoints: chain},
		})
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res
}

// tallyKind counts the kinds of run res is.
func tallyKind(kinds map[string]int, golden, res *interp.Result) {
	switch {
	case res.Hang:
		kinds["hang"]++
	case res.Exception != nil && res.Exception.Kind == interp.ExcSegFault:
		kinds["segfault"]++
	case res.Exception != nil && res.Exception.Kind == interp.ExcMisaligned:
		kinds["misaligned"]++
	case res.Exception == nil && fmt.Sprint(res.Outputs) != fmt.Sprint(golden.Outputs):
		kinds["sdc"]++
	}
	if res.Converged {
		kinds["converged"]++
	}
	if len(res.Outputs) > 0 {
		kinds["outputs"]++
	}
}
