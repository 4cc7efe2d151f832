package interp

import (
	"testing"

	"repro/internal/ir"
)

// buildLoopCall builds a loop of n iterations that calls a helper, stores
// into a stack array, and emits outputs — phi groups, calls, loads and
// stores all cross snapshot boundaries.
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

// sameRunResult compares every observable field of two results.
func sameRunResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Hang != want.Hang {
		t.Errorf("%s: Hang = %v, want %v", label, got.Hang, want.Hang)
	}
	if got.DynInstrs != want.DynInstrs {
		t.Errorf("%s: DynInstrs = %d, want %d", label, got.DynInstrs, want.DynInstrs)
	}
	if (got.Exception == nil) != (want.Exception == nil) {
		t.Fatalf("%s: Exception = %v, want %v", label, got.Exception, want.Exception)
	}
	if got.Exception != nil {
		ge, we := got.Exception, want.Exception
		if ge.Kind != we.Kind || ge.Addr != we.Addr || ge.DynIdx != we.DynIdx || ge.Instr != we.Instr {
			t.Errorf("%s: Exception = %+v, want %+v", label, ge, we)
		}
	}
	if len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got.Outputs), len(want.Outputs))
	}
	for i := range want.Outputs {
		if got.Outputs[i] != want.Outputs[i] {
			t.Errorf("%s: output %d = %+v, want %+v", label, i, got.Outputs[i], want.Outputs[i])
		}
	}
}

// captureEvery advances an Exec capturing a state every stride events until
// the program ends; includes the event-0 state.
func captureEvery(t *testing.T, m *ir.Module, cfg Config, stride int64) []*State {
	t.Helper()
	ex, err := NewExec(m, cfg)
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	states := []*State{ex.Capture()}
	for cursor := stride; ; cursor += stride {
		live := ex.Advance(cursor)
		if err := ex.Err(); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		if !live {
			break
		}
		if ex.Event() > states[len(states)-1].Event() {
			states = append(states, ex.Capture())
		}
	}
	return states
}

func nearestState(states []*State, event int64) *State {
	best := states[0]
	for _, st := range states {
		if st.Event() <= event && st.Event() > best.Event() {
			best = st
		}
	}
	return best
}

func TestResumeNoInjectionMatchesScratch(t *testing.T) {
	mods := map[string]*ir.Module{
		"loopcall": buildLoopCall(150),
		"fib":      buildFib(12),
		"divcrash": buildDivCrash(40),
	}
	for name, m := range mods {
		if err := ir.Verify(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := Config{MaxDynInstrs: 1 << 20}
		want, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		states := captureEvery(t, m, cfg, 37)
		if len(states) < 3 {
			t.Fatalf("%s: only %d states captured", name, len(states))
		}
		for _, st := range states {
			got, err := Resume(st, ResumeOptions{})
			if err != nil {
				t.Fatalf("%s: Resume@%d: %v", name, st.Event(), err)
			}
			sameRunResult(t, name, want, got)
			if wantExec := want.DynInstrs - st.Event(); got.Executed != wantExec {
				t.Errorf("%s@%d: Executed = %d, want %d", name, st.Event(), got.Executed, wantExec)
			}
		}
	}
}

func TestResumeWithInjectionMatchesScratch(t *testing.T) {
	mods := map[string]*ir.Module{
		"loopcall": buildLoopCall(120),
		"tempstor": buildTempStore(100),
		"fib":      buildFib(11),
		"divcrash": buildDivCrash(50),
	}
	for name, m := range mods {
		if err := ir.Verify(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := Config{MaxDynInstrs: 1 << 20}
		golden, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		states := captureEvery(t, m, cfg, 23)
		total := golden.DynInstrs
		for _, event := range []int64{0, 1, total / 4, total / 2, total - 2, total - 1} {
			if event < 0 {
				continue
			}
			for _, bit := range []int{0, 3, 17} {
				inj := func() *Injection { return &Injection{Event: event, Bit: bit} }
				scratch, err := Run(m, Config{MaxDynInstrs: cfg.MaxDynInstrs, Injection: inj()})
				if err != nil {
					t.Fatalf("%s: scratch: %v", name, err)
				}
				st := nearestState(states, event)
				got, err := Resume(st, ResumeOptions{Injection: inj()})
				if err != nil {
					t.Fatalf("%s: Resume: %v", name, err)
				}
				label := name + "/resume"
				sameRunResult(t, label, scratch, got)
			}
		}
	}
}

func TestResumeHangMatchesScratch(t *testing.T) {
	m := buildLoopCall(1000)
	cfg := Config{MaxDynInstrs: 500} // budget exhausts mid-loop
	want, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Hang {
		t.Fatal("expected scratch run to hang")
	}
	states := captureEvery(t, m, cfg, 101)
	for _, st := range states {
		got, err := Resume(st, ResumeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameRunResult(t, "hang", want, got)
	}
}

func TestConvergenceFastForward(t *testing.T) {
	m := buildTempStore(400)
	cfg := Config{MaxDynInstrs: 1 << 20}
	golden, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	goldenRec, err := Run(m, Config{MaxDynInstrs: 1 << 20, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	// Target an early call result (the per-iteration temp): its register and
	// the ring slot it lands in are overwritten within four iterations, so
	// the fault is benign and the state re-joins the golden path.
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
	states := captureEvery(t, m, cfg, 50)
	next := func(after int64) *State {
		for _, st := range states {
			if st.Event() > after {
				return st
			}
		}
		return nil
	}
	scratch, err := Run(m, Config{MaxDynInstrs: cfg.MaxDynInstrs, Injection: &Injection{Event: event, Bit: 3}})
	if err != nil {
		t.Fatal(err)
	}
	st := nearestState(states, event)
	got, err := Resume(st, ResumeOptions{
		Injection:   &Injection{Event: event, Bit: 3},
		Convergence: &Convergence{Golden: golden, Next: next},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRunResult(t, "converge", scratch, got)
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
	cfg := Config{MaxDynInstrs: 1 << 20}
	golden, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := captureEvery(t, m, cfg, 40)
	next := func(after int64) *State {
		for _, st := range states {
			if st.Event() > after {
				return st
			}
		}
		return nil
	}
	// Inject near the end; resume from event 0 so many golden checkpoints
	// are crossed before the fault applies.
	event := golden.DynInstrs - 3
	scratch, err := Run(m, Config{MaxDynInstrs: cfg.MaxDynInstrs, Injection: &Injection{Event: event, Bit: 1}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Resume(states[0], ResumeOptions{
		Injection:   &Injection{Event: event, Bit: 1},
		Convergence: &Convergence{Golden: golden, Next: next},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRunResult(t, "late-inject", scratch, got)
}

func TestResumeRejectsEarlierInjection(t *testing.T) {
	m := buildLoopCall(60)
	states := captureEvery(t, m, Config{}, 100)
	var late *State
	for _, st := range states {
		if st.Event() > 0 {
			late = st
		}
	}
	if late == nil {
		t.Fatal("no late state")
	}
	if _, err := Resume(late, ResumeOptions{Injection: &Injection{Event: late.Event() - 1}}); err == nil {
		t.Fatal("Resume accepted injection before snapshot event")
	}
}

func TestExecRejectsRecordAndInjection(t *testing.T) {
	m := buildLoopCall(10)
	if _, err := NewExec(m, Config{Record: true}); err == nil {
		t.Fatal("NewExec accepted Record mode")
	}
	if _, err := NewExec(m, Config{Injection: &Injection{Event: 1}}); err == nil {
		t.Fatal("NewExec accepted an injection")
	}
}

func TestAdvancePausesAtOrBelowStop(t *testing.T) {
	m := buildLoopCall(80)
	ex, err := NewExec(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	for stop := int64(10); ex.Advance(stop); stop += 10 {
		if ex.Event() > stop {
			t.Fatalf("paused at %d past stop %d", ex.Event(), stop)
		}
		if ex.Event() < prev {
			t.Fatalf("event went backwards: %d -> %d", prev, ex.Event())
		}
		prev = ex.Event()
		if st := ex.Capture(); st.Event() != ex.Event() {
			t.Fatalf("capture event %d != exec event %d", st.Event(), ex.Event())
		}
	}
}
