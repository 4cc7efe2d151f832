package vm_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/epvf"
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

// edgeCaseModules are IR texts for constructs MiniC never emits. fatal,
// when set, is the error text both engines must stop with.
var edgeCaseModules = []struct {
	name, ir, fatal string
}{
	// A phi in an entry block that a back edge also reaches: entering the
	// function by a call gives it no incoming edge.
	{name: "entry_block_phi", ir: `define i64 @f() {
entry:
  %x = phi i64 [ 0, %loop ]
  br label %loop
loop:
  br label %entry
}
define void @main() {
entry:
  output i64 1
  %r = call i64 @f()
  output i64 %r
  ret void
}
`, fatal: "phi has no incoming edge at function entry"},
	// A 4.8 GB element stride, too wide for an aux immediate, indexed at
	// 0 (a store and load), at 1 through a 32-bit index, and at -1 (a
	// load that faults).
	{name: "gep_wide_stride", ir: `define void @main() {
entry:
  %big = malloc i64*, i64 8
  %wide = bitcast i64* %big to [600000000 x i64]*
  %first = getelementptr [600000000 x i64], [600000000 x i64]* %wide, i64 0
  %narrow = bitcast [600000000 x i64]* %first to i64*
  store i64 5, i64* %narrow
  %five = load i64, i64* %narrow
  output i64 %five
  %second = getelementptr [600000000 x i64], [600000000 x i64]* %wide, i32 1
  %addr = ptrtoint [600000000 x i64]* %second to i64
  output i64 %addr
  %before = getelementptr [600000000 x i64], [600000000 x i64]* %wide, i64 -1
  %bad = bitcast [600000000 x i64]* %before to i64*
  %v = load i64, i64* %bad
  output i64 %v
  ret void
}
`},
	// A frame over 4 GiB: its second alloca's offset is too wide for an
	// aux immediate, and entering it overflows the stack.
	{name: "frame_over_4gib", ir: `define void @big() {
entry:
  %pad = alloca [5000000000 x i8]
  %slot = alloca i64
  store i64 1, i64* %slot
  ret void
}
define void @main() {
entry:
  output i64 7
  call void @big()
  output i64 8
  ret void
}
`},
	// Compares used beyond their block's branch: a loop condition that
	// a select, a zext and the exit block also read, a signed compare
	// feeding the branch, and an unsigned compare followed by a branch
	// on another value.
	{name: "icmp_shared", ir: `define void @main() {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %next, %body ]
  %c = icmp ult i32 %i, 5
  br i1 %c, label %body, label %exit
body:
  %pick = select i1 %c, i32 %i, i32 100
  %wide = zext i1 %c to i32
  %sum = add i32 %pick, %wide
  output i32 %sum
  %next = add i32 %i, 1
  %s = icmp sgt i32 %next, -1
  br i1 %s, label %loop, label %exit
exit:
  %last = zext i1 %c to i64
  output i64 %last
  %d = icmp eq i32 %i, 5
  %e = icmp ne i32 %i, 0
  output i1 %e
  br i1 %d, label %done, label %done
done:
  ret void
}
`},
	// Addresses feeding a load and other users: a store through the same
	// address, a second load, a pointer-to-integer cast and a further
	// address; a load of an older address right after a new one; and a
	// load that faults.
	{name: "gep_shared", ir: `define void @main() {
entry:
  %buf = malloc i32*, i64 64
  %p = getelementptr i32, i32* %buf, i64 3
  %v = load i32, i32* %p
  store i32 9, i32* %p
  %w = load i32, i32* %p
  %a = ptrtoint i32* %p to i64
  %q = getelementptr i32, i32* %p, i32 -1
  %x = load i32, i32* %p
  store i32 %w, i32* %q
  %y = load i32, i32* %q
  output i32 %v
  output i32 %w
  output i32 %x
  output i32 %y
  output i64 %a
  %far = getelementptr i32, i32* %q, i64 1073741824
  %z = load i32, i32* %far
  output i32 %z
  ret void
}
`},
	// A frame larger than the stack pointer itself, which must overflow
	// the stack rather than wrap below address zero.
	{name: "frame_over_sp", ir: `define void @main() {
entry:
  %pad = alloca [1125899906842624 x i8]
  %slot = alloca i64
  store i64 1, i64* %slot
  output i64* %slot
  ret void
}
`},
}

// TestDifferentialEdgeCases proves bit-identity on trap, hang, and
// unhappy-path programs, where event ordering around the raise matters.
func TestDifferentialEdgeCases(t *testing.T) {
	cfg := interp.Config{Record: true, MaxDynInstrs: 400_000}
	for _, tc := range edgeCasePrograms {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m, err := lang.Compile(tc.name, tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			walker, vmr := runBoth(t, m, cfg)
			if walker != nil {
				diffResults(t, tc.name, walker, vmr)
			}
		})
	}
	for _, tc := range edgeCaseModules {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m, err := ir.Parse(tc.ir)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			walker, vmr := runBoth(t, m, cfg)
			if walker != nil {
				diffResults(t, tc.name, walker, vmr)
			}
			// runBoth matched the VM's fatal error text to the walker's.
			_, err = interp.Run(m, cfg)
			if got := fmt.Sprint(err); tc.fatal == "" && err != nil || tc.fatal != "" && !strings.Contains(got, tc.fatal) {
				t.Fatalf("run error %v, want %q", err, tc.fatal)
			}
		})
	}
}

// TestDifferentialSavedTraces checks recordings through the saved format
// on every kernel, every edge case and 20 random programs: the walker's
// and the VM's traces save to the same bytes, Load then Save writes those
// bytes again, and the loaded trace analyzes exactly as the recorded one.
func TestDifferentialSavedTraces(t *testing.T) {
	type program struct {
		name string
		m    *ir.Module
		cfg  interp.Config
	}
	var progs []program
	for _, b := range bench.All() {
		progs = append(progs, program{b.Name, b.MustModule(1), interp.Config{Record: true}})
	}
	edge := interp.Config{Record: true, MaxDynInstrs: 400_000}
	for _, tc := range edgeCasePrograms {
		m, err := lang.Compile(tc.name, tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		progs = append(progs, program{tc.name, m, edge})
	}
	for _, tc := range edgeCaseModules {
		m, err := ir.Parse(tc.ir)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		progs = append(progs, program{tc.name, m, edge})
	}
	for seed := range 20 {
		name := fmt.Sprintf("random%d", seed)
		m, err := lang.Compile(name, bench.RandomProgram(rand.New(rand.NewSource(int64(seed)))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs = append(progs, program{name, m, interp.Config{Record: true}})
	}
	save := func(t *testing.T, tr *trace.Trace) []byte {
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			walker, vmr := runBoth(t, p.m, p.cfg)
			if walker == nil {
				return // a fatal run records no trace
			}
			data := save(t, vmr.Trace)
			if !bytes.Equal(save(t, walker.Trace), data) {
				t.Fatal("the walker's and the VM's traces save to different bytes")
			}
			back, err := trace.Load(bytes.NewReader(data), p.m)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if !bytes.Equal(save(t, back), data) {
				t.Fatal("saving the loaded trace writes different bytes")
			}
			a, b := epvf.AnalyzeTrace(vmr.Trace, epvf.Config{}), epvf.AnalyzeTrace(back, epvf.Config{})
			if a.TotalBits != b.TotalBits || a.ACEBits != b.ACEBits || a.ACENodes != b.ACENodes ||
				!slices.Equal(a.ACEMask, b.ACEMask) || !reflect.DeepEqual(a.CrashResult, b.CrashResult) {
				t.Fatal("the loaded trace analyzes differently from the recorded one")
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
