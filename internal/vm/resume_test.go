package vm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/vm"
)

func mustBench(t *testing.T, name string) *bench.Benchmark {
	t.Helper()
	b, ok := bench.Get(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return b
}

// resumeBoth resumes the same walker-captured state on both engines with
// per-engine injection copies, and asserts identical results.
func resumeBoth(t *testing.T, name string, prog *vm.Program, st *interp.State, opts interp.ResumeOptions) {
	t.Helper()
	wopts, vopts := opts, opts
	if opts.Injection != nil {
		wi, vi := *opts.Injection, *opts.Injection
		wopts.Injection, vopts.Injection = &wi, &vi
	}
	walker, werr := interp.Resume(st, wopts)
	vmr, verr := prog.Resume(st, vopts)
	if (werr == nil) != (verr == nil) {
		t.Fatalf("%s: resume error mismatch: walker=%v vm=%v", name, werr, verr)
	}
	if werr != nil {
		if werr.Error() != verr.Error() {
			t.Fatalf("%s: resume error text mismatch:\nwalker=%v\nvm=%v", name, werr, verr)
		}
		return
	}
	if walker.Hang != vmr.Hang || walker.DynInstrs != vmr.DynInstrs {
		t.Fatalf("%s: resume outcome mismatch: walker hang=%v dyn=%d, vm hang=%v dyn=%d",
			name, walker.Hang, walker.DynInstrs, vmr.Hang, vmr.DynInstrs)
	}
	diffExc(t, name, walker.Exception, vmr.Exception)
	diffOutputs(t, name, walker.Outputs, vmr.Outputs)
	if opts.Injection != nil &&
		(wopts.Injection.Applied != vopts.Injection.Applied ||
			wopts.Injection.Original != vopts.Injection.Original) {
		t.Fatalf("%s: injection bookkeeping mismatch: walker=%+v vm=%+v",
			name, wopts.Injection, vopts.Injection)
	}
	// Convergence may legitimately differ in *where* it kicks in only if
	// one engine skipped a checkpoint the other took; the spliced results
	// above are identical either way, but on this deterministic workload
	// both engines check at the same event boundaries, so assert it too.
	if walker.Converged != vmr.Converged {
		t.Fatalf("%s: converged mismatch: walker=%v vm=%v", name, walker.Converged, vmr.Converged)
	}
}

// TestDifferentialResume captures golden snapshots with the walker and
// replays injected runs from them on both engines — the exact fi hot path
// — asserting bit-identical outcomes with and without convergence.
func TestDifferentialResume(t *testing.T) {
	m := mustBench(t, "mm").MustModule(1)
	cfg := interp.Config{}
	golden, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	total := golden.Trace.NumEvents()
	chain, err := snapshot.NewChain(m, cfg, total, snapshot.Config{Stride: total / 7})
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	prog, err := vm.Compile(m, vm.Options{})
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	scratch, err := interp.Run(m, cfg)
	if err != nil {
		t.Fatalf("scratch golden: %v", err)
	}
	conv := &interp.Convergence{Golden: scratch, Next: chain.Next}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		ev := rng.Int63n(total)
		in := golden.Trace.Instr(ev)
		w := trace.DefWidth(in)
		if w == 0 {
			continue
		}
		st := chain.Nearest(ev)
		if st == nil {
			t.Fatalf("no snapshot at or before event %d", ev)
		}
		inj := &interp.Injection{Event: ev, Bit: rng.Intn(w)}
		name := fmt.Sprintf("ev%d/bit%d/from%d", ev, inj.Bit, st.Event())
		resumeBoth(t, name, prog, st, interp.ResumeOptions{Injection: inj})
		resumeBoth(t, name+"/conv", prog, st, interp.ResumeOptions{Injection: inj, Convergence: conv})
	}
}

// TestResumeCrossModule proves that resuming a state captured from one
// module on a program compiled from another fails cleanly with
// ErrUnsupported — before any execution — and leaves the state usable by
// the walker afterwards (the cross-engine interleaving regression).
func TestResumeCrossModule(t *testing.T) {
	src := `void main() {
		int s = 0;
		for (int i = 0; i < 50; i = i + 1) { s = s + i; }
		output(s);
	}`
	mA, err := lang.Compile("a", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	mB, err := lang.Compile("b", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ex, err := interp.NewExec(mA, interp.Config{})
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	ex.Advance(40)
	st := ex.Capture()

	progB, err := vm.Compile(mB, vm.Options{})
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	if _, err := progB.Resume(st, interp.ResumeOptions{}); !errors.Is(err, vm.ErrUnsupported) {
		t.Fatalf("cross-module resume: want ErrUnsupported, got %v", err)
	}

	// The failed VM resume must not have corrupted the snapshot: both a
	// walker resume and a VM resume on the right program still replay it
	// to the correct output.
	progA, err := vm.Compile(mA, vm.Options{})
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	want, err := interp.Run(mA, interp.Config{})
	if err != nil {
		t.Fatalf("walker run: %v", err)
	}
	for i := 0; i < 2; i++ { // twice: the resumes themselves must not corrupt st either
		wres, err := interp.Resume(st, interp.ResumeOptions{})
		if err != nil {
			t.Fatalf("walker resume after failed vm resume: %v", err)
		}
		vres, err := progA.Resume(st, interp.ResumeOptions{})
		if err != nil {
			t.Fatalf("vm resume after failed vm resume: %v", err)
		}
		diffOutputs(t, "cross-module", want.Outputs, wres.Outputs)
		diffOutputs(t, "cross-module", want.Outputs, vres.Outputs)
	}
}

// TestResumeInjectionBeforeSnapshot mirrors the walker's validation: an
// injection event earlier than the capture event is a caller bug and must
// produce the same error text on both engines.
func TestResumeInjectionBeforeSnapshot(t *testing.T) {
	m, err := lang.Compile("t", `void main() {
		int s = 0;
		for (int i = 0; i < 50; i = i + 1) { s = s + i; }
		output(s);
	}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ex, err := interp.NewExec(m, interp.Config{})
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	ex.Advance(40)
	st := ex.Capture()
	prog, err := vm.Compile(m, vm.Options{})
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	opts := interp.ResumeOptions{Injection: &interp.Injection{Event: st.Event() - 1}}
	_, werr := interp.Resume(st, opts)
	_, verr := prog.Resume(st, opts)
	if werr == nil || verr == nil {
		t.Fatalf("want errors from both engines, got walker=%v vm=%v", werr, verr)
	}
	if werr.Error() != verr.Error() {
		t.Fatalf("error text mismatch:\nwalker=%v\nvm=%v", werr, verr)
	}
}
