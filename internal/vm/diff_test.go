package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
	"repro/internal/vm"
)

// diffResults asserts the two engines produced bit-identical outcomes:
// same outputs, exception, hang flag, event position, and (when recorded)
// the same per-event trace down to def-use links and memory metadata.
func diffResults(t *testing.T, name string, walker, vmr *interp.Result) {
	t.Helper()
	if walker.Hang != vmr.Hang {
		t.Fatalf("%s: hang mismatch: walker=%v vm=%v", name, walker.Hang, vmr.Hang)
	}
	if walker.DynInstrs != vmr.DynInstrs {
		t.Fatalf("%s: dyn instrs mismatch: walker=%d vm=%d", name, walker.DynInstrs, vmr.DynInstrs)
	}
	diffExc(t, name, walker.Exception, vmr.Exception)
	diffOutputs(t, name, walker.Outputs, vmr.Outputs)
	if (walker.Trace == nil) != (vmr.Trace == nil) {
		t.Fatalf("%s: trace presence mismatch: walker=%v vm=%v", name, walker.Trace != nil, vmr.Trace != nil)
	}
	if walker.Trace == nil {
		return
	}
	wt, vt := walker.Trace, vmr.Trace
	if wt.NumEvents() != vt.NumEvents() {
		t.Fatalf("%s: event count mismatch: walker=%d vm=%d", name, wt.NumEvents(), vt.NumEvents())
	}
	for i := range wt.NumEvents() {
		diffEvent(t, name, i, wt.Event(i), vt.Event(i))
	}
	if len(wt.Snapshots) != len(vt.Snapshots) {
		t.Fatalf("%s: VMA snapshot count mismatch: walker=%d vm=%d", name, len(wt.Snapshots), len(vt.Snapshots))
	}
	for ver, was := range wt.Snapshots {
		vbs, ok := vt.Snapshots[ver]
		if !ok || len(was) != len(vbs) {
			t.Fatalf("%s: VMA snapshot version %d mismatch", name, ver)
		}
		for j := range was {
			if was[j] != vbs[j] {
				t.Fatalf("%s: VMA snapshot version %d entry %d: walker=%+v vm=%+v", name, ver, j, was[j], vbs[j])
			}
		}
	}
	if wt.Layout != vt.Layout {
		t.Fatalf("%s: trace layout mismatch", name)
	}
}

func diffExc(t *testing.T, name string, w, v *interp.Exception) {
	t.Helper()
	if (w == nil) != (v == nil) {
		t.Fatalf("%s: exception presence mismatch: walker=%v vm=%v", name, w, v)
	}
	if w == nil {
		return
	}
	if w.Kind != v.Kind || w.Addr != v.Addr || w.DynIdx != v.DynIdx ||
		w.Instr != v.Instr || w.Reason != v.Reason {
		t.Fatalf("%s: exception mismatch:\nwalker=%+v\nvm=%+v", name, w, v)
	}
}

func diffOutputs(t *testing.T, name string, w, v []trace.Output) {
	t.Helper()
	if len(w) != len(v) {
		t.Fatalf("%s: output count mismatch: walker=%d vm=%d", name, len(w), len(v))
	}
	for i := range w {
		if w[i] != v[i] {
			t.Fatalf("%s: output %d mismatch: walker=%+v vm=%+v", name, i, w[i], v[i])
		}
	}
}

func diffEvent(t *testing.T, name string, i int64, w, v trace.Event) {
	t.Helper()
	if w.Instr != v.Instr {
		t.Fatalf("%s: event %d instr mismatch: walker=%v(id %d) vm=%v(id %d)",
			name, i, w.Instr.Op, w.Instr.ID, v.Instr.Op, v.Instr.ID)
	}
	if len(w.Ops) != len(v.Ops) || len(w.OpDefs) != len(v.OpDefs) {
		t.Fatalf("%s: event %d (%v) operand arity mismatch: walker=%d/%d vm=%d/%d",
			name, i, w.Instr.Op, len(w.Ops), len(w.OpDefs), len(v.Ops), len(v.OpDefs))
	}
	for j := range w.Ops {
		if w.Ops[j] != v.Ops[j] {
			t.Fatalf("%s: event %d (%v) op %d mismatch: walker=%#x vm=%#x",
				name, i, w.Instr.Op, j, w.Ops[j], v.Ops[j])
		}
		if w.OpDefs[j] != v.OpDefs[j] {
			t.Fatalf("%s: event %d (%v) opdef %d mismatch: walker=%d vm=%d",
				name, i, w.Instr.Op, j, w.OpDefs[j], v.OpDefs[j])
		}
	}
	if w.Result != v.Result || w.Addr != v.Addr || w.MemDef != v.MemDef ||
		w.VMAVer != v.VMAVer || w.SP != v.SP {
		t.Fatalf("%s: event %d (%v) payload mismatch:\nwalker=%+v\nvm=%+v", name, i, w.Instr.Op, w, v)
	}
}

// runBoth executes the module on both engines under the same config and
// returns (walker, vm) results.
func runBoth(t *testing.T, m *ir.Module, cfg interp.Config) (*interp.Result, *interp.Result) {
	t.Helper()
	prog, err := vm.Compile(m, vm.Options{})
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	// Injection structs are mutated by the run (Applied, Original): give
	// each engine its own copy so neither sees the other's bookkeeping.
	wcfg, vcfg := cfg, cfg
	if cfg.Injection != nil {
		wi, vi := *cfg.Injection, *cfg.Injection
		wcfg.Injection, vcfg.Injection = &wi, &vi
	}
	walker, werr := interp.Run(m, wcfg)
	vmr, verr := prog.Run(vcfg)
	if (werr == nil) != (verr == nil) {
		t.Fatalf("engine error mismatch: walker=%v vm=%v", werr, verr)
	}
	if werr != nil {
		if werr.Error() != verr.Error() {
			t.Fatalf("fatal error text mismatch:\nwalker=%v\nvm=%v", werr, verr)
		}
		return nil, nil
	}
	if cfg.Injection != nil {
		if wcfg.Injection.Applied != vcfg.Injection.Applied ||
			wcfg.Injection.Original != vcfg.Injection.Original {
			t.Fatalf("injection bookkeeping mismatch: walker=%+v vm=%+v", wcfg.Injection, vcfg.Injection)
		}
	}
	return walker, vmr
}

// TestDifferentialKernels proves record-mode bit-identity on the full
// Table IV suite: every dynamic event, def-use link, memory address, VMA
// version, and output must match the walker exactly.
func TestDifferentialKernels(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			m := b.MustModule(1)
			walker, vmr := runBoth(t, m, interp.Config{Record: true})
			if walker == nil {
				t.Fatal("kernel did not run")
			}
			diffResults(t, b.Name, walker, vmr)
			if walker.Exception != nil || walker.Hang {
				t.Fatalf("golden kernel run not clean: exc=%v hang=%v", walker.Exception, walker.Hang)
			}
		})
	}
}

// edgeCasePrograms are MiniC sources that exercise interpreter corner
// semantics: traps, phi groups, recursion, allocation, float paths, and
// hangs. Differential identity must hold on the unhappy paths too.
var edgeCasePrograms = []struct {
	name string
	src  string
}{
	{"div_zero", `void main() { int a = 7; int b = 0; output(a / b); }`},
	{"div_overflow", `void main() { int a = -2147483648; int b = -1; output(a / b); }`},
	{"rem_zero", `void main() { int a = 7; int b = 0; output(a % b); }`},
	{"shift_wide", `void main() { int a = 3; int s = 40; output(a << s); output(a >> s); }`},
	{"loop_phi", `void main() {
		int s = 0;
		for (int i = 0; i < 10; i = i + 1) { s = s + i * i; }
		output(s);
	}`},
	{"nested_calls", `
		int add3(int a, int b, int c) { return a + b + c; }
		int twice(int x) { return add3(x, x, 0); }
		void main() { output(twice(add3(1, 2, 3))); }`},
	{"recursion", `
		int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
		void main() { output(fib(12)); }`},
	{"stack_overflow", `
		int down(int n) {
			double pad[128];
			pad[0] = 1.0;
			if (n == 0) { return 0; }
			return 1 + down(n - 1);
		}
		void main() { output(down(100000000)); }`},
	{"heap", `void main() {
		int *p = malloc(40);
		for (int i = 0; i < 10; i = i + 1) { p[i] = i * 3; }
		int s = 0;
		for (int i = 0; i < 10; i = i + 1) { s = s + p[i]; }
		free(p);
		output(s);
	}`},
	{"oob_load", `void main() {
		int *p = malloc(8);
		output(p[1000000000]);
	}`},
	{"null_store", `void main() {
		long n = 1073741824;
		int *p = malloc(n * 4);
		p[0] = 1;
	}`},
	{"floats", `void main() {
		double a = 1.5; double b = 2.25;
		output(a * b + a / b - b);
		output((int)(a * 100.0));
		float f = (float)a;
		output((double)f * 2.0);
	}`},
	{"float_cmp_branch", `void main() {
		double x = 0.1;
		int n = 0;
		while (x < 1.0) { x = x + 0.1; n = n + 1; }
		output(n);
	}`},
	{"hang", `void main() { int i = 0; while (i >= 0) { i = i ^ 1; } output(i); }`},
	{"abort", `void main() { int a = 5; if (a > 3) { abort(); } output(a); }`},
	{"globals", `
		int g;
		int h[4];
		void main() {
			g = 42;
			h[0] = g; h[1] = g * 2; h[2] = h[0] + h[1]; h[3] = 0 - h[2];
			output(h[2]); output(h[3]);
		}`},
	{"long_arith", `void main() {
		long a = 1000000007;
		long b = a * a;
		output(b); output(b % 97); output((int)b);
	}`},
	{"switchy_phi", `void main() {
		int acc = 0;
		for (int i = 0; i < 8; i = i + 1) {
			int v = 0;
			if (i < 3) { v = i * 10; } else { v = i - 100; }
			acc = acc + v;
		}
		output(acc);
	}`},
}

// TestDifferentialEdgeCases proves bit-identity on trap, hang, and
// unhappy-path programs, where event ordering around the raise matters.
func TestDifferentialEdgeCases(t *testing.T) {
	for _, tc := range edgeCasePrograms {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m, err := lang.Compile(tc.name, tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			cfg := interp.Config{Record: true, MaxDynInstrs: 400_000}
			walker, vmr := runBoth(t, m, cfg)
			if walker != nil {
				diffResults(t, tc.name, walker, vmr)
			}
		})
	}
}

// TestDifferentialInjection sweeps fault injections over every event of a
// few programs and asserts identical records (outcome, outputs, exception
// identity) for every single target on both engines.
func TestDifferentialInjection(t *testing.T) {
	progs := []struct {
		name string
		src  string
	}{
		{"loop", `void main() {
			int s = 1;
			for (int i = 1; i < 6; i = i + 1) { s = s * i; }
			output(s);
		}`},
		{"mem", `void main() {
			int* p = (int*)malloc(16);
			p[0] = 11; p[1] = 22; p[2] = 33; p[3] = 44;
			output(p[0] + p[1] + p[2] + p[3]);
			free(p);
		}`},
		{"calls", `
			int sq(int x) { return x * x; }
			void main() { output(sq(3) + sq(4)); }`},
	}
	for i, pc := range progs {
		pc := pc
		// Each parallel subtest draws from its own source: one shared
		// *rand.Rand is a data race.
		rng := rand.New(rand.NewSource(42 + int64(i)))
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			m, err := lang.Compile(pc.name, pc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			golden, err := interp.Run(m, interp.Config{Record: true})
			if err != nil {
				t.Fatalf("golden: %v", err)
			}
			for ev := range golden.Trace.NumEvents() {
				w := trace.DefWidth(golden.Trace.Instr(ev))
				if w == 0 {
					continue
				}
				bit := rng.Intn(w)
				cfg := interp.Config{
					MaxDynInstrs: 200_000,
					Injection:    &interp.Injection{Event: ev, Bit: bit},
				}
				name := fmt.Sprintf("%s/ev%d/bit%d", pc.name, ev, bit)
				walker, vmr := runBoth(t, m, cfg)
				if walker != nil {
					diffResults(t, name, walker, vmr)
				}
			}
		})
	}
}
