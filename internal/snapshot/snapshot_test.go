package snapshot

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/vm"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return m
}

func compileVM(t *testing.T, m *ir.Module) *vm.Program {
	t.Helper()
	p, err := vm.Compile(m, vm.Options{})
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	return p
}

const loopSrc = `
int f(int x) { return x * 3 + 1; }
int main() {
  int arr[8];
  int i = 0; int sum = 0;
  while (i < 300) {
    int t = f(i);
    arr[i % 8] = t;
    sum = sum + t;
    i = i + 1;
  }
  output(sum);
  output(arr[3]);
  return 0;
}
`

func TestChainInvariants(t *testing.T) {
	m := compile(t, loopSrc)
	cfg := interp.Config{MaxDynInstrs: 1 << 20}
	golden, err := interp.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := newChain(compileVM(t, m), cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Stride() != 100 {
		t.Fatalf("stride = %d", ch.Stride())
	}
	for _, event := range []int64{0, 1, 99, 100, 101, 555, golden.DynInstrs - 1} {
		st := ch.Nearest(event)
		if st.Event() > event {
			t.Fatalf("Nearest(%d) = %d, above the event", event, st.Event())
		}
		if event-st.Event() >= 2*ch.Stride() {
			t.Fatalf("Nearest(%d) = %d, more than two strides below", event, st.Event())
		}
	}
	// The checkpoints run strictly forward from event 0.
	var last int64 = -1
	for _, st := range ch.Checkpoints() {
		if st.Event() <= last {
			t.Fatalf("checkpoint %d follows %d, not strictly above", st.Event(), last)
		}
		last = st.Event()
	}
	if ch.Checkpoints()[0].Event() != 0 {
		t.Fatalf("first checkpoint at %d, want 0", ch.Checkpoints()[0].Event())
	}
	if last >= golden.DynInstrs {
		t.Fatalf("snapshot at %d past the program end %d", last, golden.DynInstrs)
	}
	if v := ch.View(); v.Captures != int64(len(ch.Checkpoints())) || v.Captures < 2 || !v.Enabled || v.Stride != 100 {
		t.Fatalf("View = %+v", v)
	}
}

func TestStrideCapAndAuto(t *testing.T) {
	if s := AutoStride(100); s != MinStride {
		t.Fatalf("AutoStride(100) = %d, want %d", s, MinStride)
	}
	if s := AutoStride(1 << 20); s != 1024 {
		t.Fatalf("AutoStride(1M) = %d, want 1024", s)
	}
	// Below the cap the chain keeps the auto stride; from about 1M events
	// on it widens so that fewer than DefaultMaxSnapshots fit.
	for _, total := range []int64{0, 100, 5000, 1<<20 - 1, 1 << 20, 1 << 30, 1 << 40} {
		s := chainStride(total)
		if s < AutoStride(total) || total/s >= DefaultMaxSnapshots {
			t.Fatalf("chainStride(%d) = %d: below AutoStride %d or %d snapshots", total, s, AutoStride(total), total/s)
		}
		if total/AutoStride(total) < DefaultMaxSnapshots && s != AutoStride(total) {
			t.Fatalf("chainStride(%d) = %d, want the auto stride %d", total, s, AutoStride(total))
		}
	}
	m := compile(t, loopSrc)
	golden, err := interp.Run(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChain(compileVM(t, m), interp.Config{}, golden.DynInstrs)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Stride() != AutoStride(golden.DynInstrs) {
		t.Fatalf("NewChain stride = %d, want AutoStride(%d) = %d", ch.Stride(), golden.DynInstrs, AutoStride(golden.DynInstrs))
	}
}

// genProgram emits a random lang program: loops over arrays with data
// movement through helpers, conditionals, and outputs. Deterministic under
// seed.
func genProgram(rng *rand.Rand) string {
	n := 50 + rng.Intn(200)
	mod := 4 + rng.Intn(8)
	mul := 1 + rng.Intn(9)
	add := rng.Intn(100)
	var b strings.Builder
	fmt.Fprintf(&b, "int f(int x) { return x * %d + %d; }\n", mul, add)
	fmt.Fprintf(&b, "int g(int x) { if (x < %d) { return x + 1; } return x - f(x %% 7); }\n", rng.Intn(50))
	b.WriteString("int main() {\n")
	fmt.Fprintf(&b, "  int arr[%d];\n", mod)
	fmt.Fprintf(&b, "  int i = 0; int acc = %d;\n", rng.Intn(10))
	fmt.Fprintf(&b, "  while (i < %d) {\n", n)
	fmt.Fprintf(&b, "    int t = f(i) ^ g(acc %% 31);\n")
	fmt.Fprintf(&b, "    arr[i %% %d] = t;\n", mod)
	switch rng.Intn(3) {
	case 0:
		fmt.Fprintf(&b, "    if (t %% 5 == 0) { acc = acc + arr[(i + 1) %% %d]; } else { acc = acc ^ t; }\n", mod)
	case 1:
		fmt.Fprintf(&b, "    acc = acc + (t >> 2) - arr[t %% %d & %d];\n", mod, mod-1)
	default:
		fmt.Fprintf(&b, "    acc = (acc << 1) ^ arr[i %% %d];\n", mod)
	}
	b.WriteString("    i = i + 1;\n  }\n")
	fmt.Fprintf(&b, "  int j = 0;\n  while (j < %d) { output(arr[j]); j = j + 1; }\n", mod)
	b.WriteString("  output(acc);\n  return 0;\n}\n")
	return b.String()
}

// TestPropertyResumedRunsBitIdentical is the core differential property:
// for randomized lang programs and random injection targets, a VM run
// resumed from the nearest chain snapshot (with convergence enabled) is
// bit-identical to a from-scratch walker run — same outputs, exception,
// hang flag, and final event position.
func TestPropertyResumedRunsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	programs := 6
	if testing.Short() {
		programs = 2
	}
	for p := 0; p < programs; p++ {
		src := genProgram(rng)
		m := compile(t, src)
		cfg := interp.Config{MaxDynInstrs: 1 << 22}
		golden, err := interp.Run(m, cfg)
		if err != nil {
			t.Fatalf("golden: %v\n%s", err, src)
		}
		if golden.Exception != nil || golden.Hang {
			t.Fatalf("golden run not clean: %+v\n%s", golden, src)
		}
		ch, err := newChain(compileVM(t, m), cfg, 50+int64(rng.Intn(200)))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			event := rng.Int63n(golden.DynInstrs)
			bit := rng.Intn(32)
			inj := func() *interp.Injection { return &interp.Injection{Event: event, Bit: bit} }
			scratch, err := interp.Run(m, interp.Config{MaxDynInstrs: cfg.MaxDynInstrs, Injection: inj()})
			if err != nil {
				t.Fatalf("scratch: %v", err)
			}
			st := ch.Nearest(event)
			got, err := vm.Resume(st, vm.ResumeOptions{
				Injection:   inj(),
				Convergence: &vm.Convergence{Golden: golden, Checkpoints: ch.Checkpoints()},
			})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			ch.NoteRestore(got)
			label := fmt.Sprintf("program %d trial %d event %d bit %d", p, trial, event, bit)
			if got.Hang != scratch.Hang || got.DynInstrs != scratch.DynInstrs {
				t.Fatalf("%s: hang/dyn mismatch: got (%v,%d) want (%v,%d)\n%s",
					label, got.Hang, got.DynInstrs, scratch.Hang, scratch.DynInstrs, src)
			}
			if (got.Exception == nil) != (scratch.Exception == nil) {
				t.Fatalf("%s: exception mismatch: got %v want %v", label, got.Exception, scratch.Exception)
			}
			if got.Exception != nil && (got.Exception.Kind != scratch.Exception.Kind ||
				got.Exception.DynIdx != scratch.Exception.DynIdx) {
				t.Fatalf("%s: exception = %+v, want %+v", label, got.Exception, scratch.Exception)
			}
			if len(got.Outputs) != len(scratch.Outputs) {
				t.Fatalf("%s: %d outputs, want %d", label, len(got.Outputs), len(scratch.Outputs))
			}
			for i := range scratch.Outputs {
				if got.Outputs[i] != scratch.Outputs[i] {
					t.Fatalf("%s: output %d = %+v, want %+v", label, i, got.Outputs[i], scratch.Outputs[i])
				}
			}
		}
		v := ch.View()
		if v.Restores != 30 {
			t.Fatalf("restores = %d, want 30", v.Restores)
		}
		if v.ReplayedEvents+v.SkippedEvents == 0 {
			t.Fatal("no events accounted")
		}
	}
}

// TestConcurrentNearestResume hammers one chain from many goroutines under
// -race: lock-free lookups, concurrent state forks, and stats updates.
func TestConcurrentNearestResume(t *testing.T) {
	m := compile(t, loopSrc)
	cfg := interp.Config{MaxDynInstrs: 1 << 20}
	golden, err := interp.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := newChain(compileVM(t, m), cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for trial := 0; trial < 20; trial++ {
				event := rng.Int63n(golden.DynInstrs)
				st := ch.Nearest(event)
				res, err := vm.Resume(st, vm.ResumeOptions{
					Injection:   &interp.Injection{Event: event, Bit: rng.Intn(16)},
					Convergence: &vm.Convergence{Golden: golden, Checkpoints: ch.Checkpoints()},
				})
				if err != nil {
					done <- err
					return
				}
				ch.NoteRestore(res)
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if v := ch.View(); v.Restores != 160 {
		t.Fatalf("restores = %d", v.Restores)
	}
}
