package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/vm"
)

// buildLoopCall builds a loop of n iterations that calls a helper, stores
// into a stack array, and emits outputs — phi groups, calls, loads,
// stores, compares and branches all cross snapshot boundaries.
func buildLoopCall(n int64) *ir.Module {
	b := ir.NewBuilder("loopcall")
	f := b.NewFunc("f", ir.I32, &ir.Param{Name: "x", Ty: ir.I32})
	x := f.Params[0]
	b.Ret(b.Add(b.Mul(x, ir.ConstInt(ir.I32, 3)), ir.ConstInt(ir.I32, 1)))

	b.NewFunc("main", ir.Void)
	entry := b.CurBlock()
	arr := b.Alloca(ir.I32, 8)
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(body)

	b.SetBlock(body)
	i := b.Phi(ir.I32)
	sum := b.Phi(ir.I32)
	b.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	b.AddIncoming(sum, ir.ConstInt(ir.I32, 0), entry)
	fv := b.Call(f, i)
	sum2 := b.Add(sum, fv)
	slot := b.GEP(arr, b.SRem(i, ir.ConstInt(ir.I32, 8)))
	b.Store(sum2, slot)
	i2 := b.Add(i, ir.ConstInt(ir.I32, 1))
	b.AddIncoming(i, i2, body)
	b.AddIncoming(sum, sum2, body)
	b.CondBr(b.ICmp(ir.ISLT, i2, ir.ConstInt(ir.I32, n)), body, exit)

	b.SetBlock(exit)
	b.Output(sum2)
	b.Output(b.Load(b.GEP(arr, ir.ConstInt(ir.I32, 3))))
	b.Ret(nil)
	return b.MustModule()
}

// buildTempStore builds a loop whose per-iteration temporary is stored
// into a 4-slot ring; every register and every slot is overwritten within
// a few iterations, so an early fault's footprint washes out — the
// convergence fast-forward test bed.
func buildTempStore(n int64) *ir.Module {
	b := ir.NewBuilder("tempstore")
	f := b.NewFunc("f", ir.I32, &ir.Param{Name: "x", Ty: ir.I32})
	b.Ret(b.Add(b.Mul(f.Params[0], ir.ConstInt(ir.I32, 5)), ir.ConstInt(ir.I32, 7)))

	b.NewFunc("main", ir.Void)
	entry := b.CurBlock()
	arr := b.Alloca(ir.I32, 4)
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(body)

	b.SetBlock(body)
	i := b.Phi(ir.I32)
	b.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	t := b.Call(f, i)
	b.Store(t, b.GEP(arr, b.SRem(i, ir.ConstInt(ir.I32, 4))))
	i2 := b.Add(i, ir.ConstInt(ir.I32, 1))
	b.AddIncoming(i, i2, body)
	b.CondBr(b.ICmp(ir.ISLT, i2, ir.ConstInt(ir.I32, n)), body, exit)

	b.SetBlock(exit)
	for k := int64(0); k < 4; k++ {
		b.Output(b.Load(b.GEP(arr, ir.ConstInt(ir.I32, k))))
	}
	b.Ret(nil)
	return b.MustModule()
}

// buildDivCrash runs a short loop and then divides by zero.
func buildDivCrash(n int64) *ir.Module {
	b := ir.NewBuilder("divcrash")
	b.NewFunc("main", ir.Void)
	entry := b.CurBlock()
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(body)
	b.SetBlock(body)
	i := b.Phi(ir.I32)
	b.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	i2 := b.Add(i, ir.ConstInt(ir.I32, 1))
	b.AddIncoming(i, i2, body)
	b.CondBr(b.ICmp(ir.ISLT, i2, ir.ConstInt(ir.I32, n)), body, exit)
	b.SetBlock(exit)
	zero := b.Sub(i2, i2)
	b.Output(b.SDiv(ir.ConstInt(ir.I32, 100), zero))
	b.Ret(nil)
	return b.MustModule()
}

// buildFib builds naive recursive fib(m) — deep call stacks under capture.
func buildFib(m int64) *ir.Module {
	b := ir.NewBuilder("fib")
	fib := b.NewFunc("fib", ir.I32, &ir.Param{Name: "n", Ty: ir.I32})
	n := fib.Params[0]
	rec := b.NewBlock("rec")
	base := b.NewBlock("base")
	b.CondBr(b.ICmp(ir.ISLT, n, ir.ConstInt(ir.I32, 2)), base, rec)
	b.SetBlock(base)
	b.Ret(n)
	b.SetBlock(rec)
	a := b.Call(fib, b.Sub(n, ir.ConstInt(ir.I32, 1)))
	c := b.Call(fib, b.Sub(n, ir.ConstInt(ir.I32, 2)))
	b.Ret(b.Add(a, c))

	b.NewFunc("main", ir.Void)
	b.Output(b.Call(fib, ir.ConstInt(ir.I32, m)))
	b.Ret(nil)
	return b.MustModule()
}

func compileProg(t *testing.T, m *ir.Module) *vm.Program {
	t.Helper()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	prog, err := vm.Compile(m, vm.Options{})
	if err != nil {
		t.Fatalf("%s: vm compile: %v", m.Name, err)
	}
	return prog
}

// walkerRun is the reference: a from-scratch run on the walker.
func walkerRun(t *testing.T, m *ir.Module, cfg interp.Config) *interp.Result {
	t.Helper()
	res, err := interp.Run(m, cfg)
	if err != nil {
		t.Fatalf("%s: walker run: %v", m.Name, err)
	}
	return res
}

// sameRun asserts a resumed VM run matches the walker's scratch run on
// every observable field.
func sameRun(t *testing.T, name string, walker, resumed *interp.Result) {
	t.Helper()
	if walker.Hang != resumed.Hang || walker.DynInstrs != resumed.DynInstrs {
		t.Fatalf("%s: walker hang=%v dyn=%d, resumed hang=%v dyn=%d",
			name, walker.Hang, walker.DynInstrs, resumed.Hang, resumed.DynInstrs)
	}
	diffExc(t, name, walker.Exception, resumed.Exception)
	diffOutputs(t, name, walker.Outputs, resumed.Outputs)
}

func nearestState(states []*vm.State, event int64) *vm.State {
	best := states[0]
	for _, st := range states {
		if st.Event() <= event && st.Event() > best.Event() {
			best = st
		}
	}
	return best
}

func TestResumeNoInjectionMatchesScratch(t *testing.T) {
	for _, m := range []*ir.Module{buildLoopCall(150), buildFib(12), buildDivCrash(40)} {
		prog := compileProg(t, m)
		cfg := interp.Config{MaxDynInstrs: 1 << 20}
		want := walkerRun(t, m, cfg)
		states, err := prog.Checkpoints(cfg, 37)
		if err != nil {
			t.Fatalf("%s: Checkpoints: %v", m.Name, err)
		}
		if len(states) < 3 {
			t.Fatalf("%s: only %d states captured", m.Name, len(states))
		}
		for _, st := range states {
			got, err := vm.Resume(st, vm.ResumeOptions{})
			if err != nil {
				t.Fatalf("%s: Resume@%d: %v", m.Name, st.Event(), err)
			}
			sameRun(t, fmt.Sprintf("%s@%d", m.Name, st.Event()), want, got)
			if wantExec := want.DynInstrs - st.Event(); got.Executed != wantExec {
				t.Errorf("%s@%d: Executed = %d, want %d", m.Name, st.Event(), got.Executed, wantExec)
			}
		}
	}
}

func TestResumeWithInjectionMatchesScratch(t *testing.T) {
	for _, m := range []*ir.Module{buildLoopCall(120), buildTempStore(100), buildFib(11), buildDivCrash(50)} {
		prog := compileProg(t, m)
		cfg := interp.Config{MaxDynInstrs: 1 << 20}
		golden := walkerRun(t, m, cfg)
		states, err := prog.Checkpoints(cfg, 23)
		if err != nil {
			t.Fatalf("%s: Checkpoints: %v", m.Name, err)
		}
		total := golden.DynInstrs
		for _, event := range []int64{0, 1, total / 4, total / 2, total - 2, total - 1} {
			for _, bit := range []int{0, 3, 17} {
				scratch := walkerRun(t, m, interp.Config{MaxDynInstrs: cfg.MaxDynInstrs,
					Injection: &interp.Injection{Event: event, Bit: bit}})
				st := nearestState(states, event)
				got, err := vm.Resume(st, vm.ResumeOptions{Injection: &interp.Injection{Event: event, Bit: bit}})
				if err != nil {
					t.Fatalf("%s: Resume: %v", m.Name, err)
				}
				sameRun(t, fmt.Sprintf("%s/ev%d/bit%d", m.Name, event, bit), scratch, got)
			}
		}
	}
}

func TestResumeHangMatchesScratch(t *testing.T) {
	m := buildLoopCall(1000)
	cfg := interp.Config{MaxDynInstrs: 500} // budget exhausts mid-loop
	want := walkerRun(t, m, cfg)
	if !want.Hang {
		t.Fatal("expected scratch run to hang")
	}
	states, err := compileProg(t, m).Checkpoints(cfg, 101)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		got, err := vm.Resume(st, vm.ResumeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, fmt.Sprintf("hang@%d", st.Event()), want, got)
	}
}

func TestConvergenceFastForward(t *testing.T) {
	m := buildTempStore(400)
	cfg := interp.Config{MaxDynInstrs: 1 << 20}
	golden := walkerRun(t, m, cfg)
	goldenRec := walkerRun(t, m, interp.Config{MaxDynInstrs: cfg.MaxDynInstrs, Record: true})
	// Target an early call result (the per-iteration temp): its register
	// and the ring slot it lands in are overwritten within four
	// iterations, so the fault is benign and the state re-joins the golden
	// path.
	var event int64 = -1
	calls := 0
	for i := range goldenRec.Trace.NumEvents() {
		if goldenRec.Trace.Instr(i).Op == ir.OpCall {
			calls++
			if calls == 10 {
				event = i
				break
			}
		}
	}
	if event < 0 {
		t.Fatal("no call event found")
	}
	states, err := compileProg(t, m).Checkpoints(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	scratch := walkerRun(t, m, interp.Config{MaxDynInstrs: cfg.MaxDynInstrs,
		Injection: &interp.Injection{Event: event, Bit: 3}})
	got, err := vm.Resume(nearestState(states, event), vm.ResumeOptions{
		Injection:   &interp.Injection{Event: event, Bit: 3},
		Convergence: &vm.Convergence{Golden: golden, Checkpoints: states},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "converge", scratch, got)
	if !got.Converged {
		t.Fatal("run did not converge")
	}
	if got.Executed >= scratch.Executed/2 {
		t.Errorf("converged run executed %d of %d events — no fast-forward win",
			got.Executed, scratch.Executed)
	}
}

// TestConvergenceNeverFiresBeforeInjection guards the soundness trap: a
// resumed run that has not yet applied its fault is the golden prefix and
// must not be spliced to the golden tail (it would skip the injection).
func TestConvergenceNeverFiresBeforeInjection(t *testing.T) {
	m := buildTempStore(300)
	cfg := interp.Config{MaxDynInstrs: 1 << 20}
	golden := walkerRun(t, m, cfg)
	states, err := compileProg(t, m).Checkpoints(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Inject near the end; resume from event 0 so many golden checkpoints
	// are crossed before the fault applies.
	event := golden.DynInstrs - 3
	scratch := walkerRun(t, m, interp.Config{MaxDynInstrs: cfg.MaxDynInstrs,
		Injection: &interp.Injection{Event: event, Bit: 1}})
	got, err := vm.Resume(states[0], vm.ResumeOptions{
		Injection:   &interp.Injection{Event: event, Bit: 1},
		Convergence: &vm.Convergence{Golden: golden, Checkpoints: states},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "late-inject", scratch, got)
}

// TestResumeInjectionBeforeSnapshot: an injection event earlier than the
// capture event is a caller bug (that event already executed, uncorrupted,
// inside the snapshot) and Resume rejects it.
func TestResumeInjectionBeforeSnapshot(t *testing.T) {
	states, err := compileProg(t, buildLoopCall(60)).Checkpoints(interp.Config{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	late := states[len(states)-1]
	if late.Event() == 0 {
		t.Fatal("no late state")
	}
	if _, err := vm.Resume(late, vm.ResumeOptions{Injection: &interp.Injection{Event: late.Event() - 1}}); err == nil {
		t.Fatal("Resume accepted an injection before the snapshot event")
	}
}

// TestResumeRejectsEarlierInjection: the same rejection holds from every
// snapshot of the run, not only the last one.
func TestResumeRejectsEarlierInjection(t *testing.T) {
	states, err := compileProg(t, buildLoopCall(60)).Checkpoints(interp.Config{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, st := range states {
		if st.Event() == 0 {
			continue
		}
		if _, err := vm.Resume(st, vm.ResumeOptions{Injection: &interp.Injection{Event: st.Event() - 1}}); err == nil {
			t.Fatalf("Resume at event %d accepted an injection at event %d", st.Event(), st.Event()-1)
		}
		checked++
	}
	if checked < 2 {
		t.Fatalf("only %d snapshots past event 0", checked)
	}
}

func TestCheckpointsRejectRecordAndInjection(t *testing.T) {
	prog := compileProg(t, buildLoopCall(10))
	if _, err := prog.Checkpoints(interp.Config{Record: true}, 10); err == nil {
		t.Fatal("Checkpoints accepted Record mode")
	}
	if _, err := prog.Checkpoints(interp.Config{Injection: &interp.Injection{Event: 1}}, 10); err == nil {
		t.Fatal("Checkpoints accepted an injection")
	}
	if _, err := prog.Checkpoints(interp.Config{}, 0); err == nil {
		t.Fatal("Checkpoints accepted stride 0")
	}
}

// TestCheckpointsAtStridePoints pins the capture rule: every instruction
// is a dispatch of its own except a block-leading phi group, so a
// checkpoint lands exactly on each multiple of the stride below the
// program's end unless that falls inside a phi group, where it lands on
// the group's first event, and no event is captured twice. The walker's
// trace tells where the groups are. buildLoopCall is captured at every
// event; lulesh, mm and bfs at every 97th.
func TestCheckpointsAtStridePoints(t *testing.T) {
	mods := []*ir.Module{buildLoopCall(80)}
	for _, name := range []string{"lulesh", "mm", "bfs"} {
		b, ok := bench.Get(name)
		if !ok {
			t.Fatalf("%s benchmark missing", name)
		}
		mods = append(mods, b.MustModule(1))
	}
	grouped := 0
	for i, m := range mods {
		stride := int64(97)
		if i == 0 {
			stride = 1
		}
		tr := walkerRun(t, m, interp.Config{Record: true}).Trace
		// groupStart returns the first event of the phi group holding ev,
		// or ev when it is not a phi.
		groupStart := func(ev int64) int64 {
			for ev > 0 && tr.Instr(ev).Op == ir.OpPhi && tr.Instr(ev-1).Op == ir.OpPhi &&
				tr.Instr(ev-1).Parent == tr.Instr(ev).Parent {
				ev--
			}
			return ev
		}
		want, inGroup := []int64{0}, 0
		for s := stride; s < tr.NumEvents(); s += stride {
			ev := groupStart(s)
			if ev != s {
				inGroup++
			}
			if ev > want[len(want)-1] {
				want = append(want, ev)
			}
		}
		states, err := compileProg(t, m).Checkpoints(interp.Config{}, stride)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if len(states) != len(want) {
			t.Fatalf("%s: %d checkpoints, want %d", m.Name, len(states), len(want))
		}
		for k, st := range states {
			if st.Event() != want[k] {
				t.Fatalf("%s: checkpoint %d at event %d, want %d", m.Name, k, st.Event(), want[k])
			}
		}
		if len(states) < 100 {
			t.Fatalf("%s: only %d checkpoints", m.Name, len(states))
		}
		t.Logf("%s: %d checkpoints, %d stride points inside phi groups", m.Name, len(states), inGroup)
		grouped += inGroup
	}
	if grouped == 0 {
		t.Fatal("no stride point fell inside a phi group")
	}
}

// TestDifferentialResume is the fi hot path against its oracle: from
// every snapshot of a VM chain over mm, an injected VM resume — with and
// without convergence — equals the walker's scratch run with the same
// injection, injection bookkeeping included.
func TestDifferentialResume(t *testing.T) {
	if raceEnabled {
		// One goroutine, so -race finds nothing here and only multiplies
		// the walker runs' cost; the vm differential step of make check
		// runs it in a normal build.
		t.Skip("single-goroutine identity check; runs without -race")
	}
	b, ok := bench.Get("mm")
	if !ok {
		t.Fatal("mm benchmark missing")
	}
	m := b.MustModule(1)
	golden := walkerRun(t, m, interp.Config{Record: true})
	total := golden.Trace.NumEvents()
	cfg := interp.Config{MaxDynInstrs: 10 * total}
	chain, err := snapshot.NewChain(compileProg(t, m), cfg, total)
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	cps := chain.Checkpoints()
	conv := &vm.Convergence{Golden: walkerRun(t, m, cfg), Checkpoints: cps}

	rng := rand.New(rand.NewSource(7))
	for k, st := range cps {
		end := total
		if k+1 < len(cps) {
			end = cps[k+1].Event()
		}
		// An injectable event between this snapshot and the next.
		ev := st.Event() + rng.Int63n(end-st.Event())
		for ev < end && trace.DefWidth(golden.Trace.Instr(ev)) == 0 {
			ev++
		}
		if ev == end {
			continue
		}
		bit := rng.Intn(trace.DefWidth(golden.Trace.Instr(ev)))
		wcfg := cfg
		wcfg.Injection = &interp.Injection{Event: ev, Bit: bit}
		want := walkerRun(t, m, wcfg)
		for _, c := range []*vm.Convergence{nil, conv} {
			name := fmt.Sprintf("ev%d/bit%d/from%d/conv=%v", ev, bit, st.Event(), c != nil)
			inj := &interp.Injection{Event: ev, Bit: bit}
			got, err := vm.Resume(st, vm.ResumeOptions{Injection: inj, Convergence: c})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameRun(t, name, want, got)
			if inj.Applied != wcfg.Injection.Applied || inj.Original != wcfg.Injection.Original {
				t.Fatalf("%s: injection bookkeeping: walker=%+v vm=%+v", name, wcfg.Injection, inj)
			}
		}
	}
	if len(cps) < 10 {
		t.Fatalf("chain held only %d snapshots", len(cps))
	}
}
