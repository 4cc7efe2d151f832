package vm_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
	"repro/internal/vm"
)

// fuzzSeeds are MiniC sources spanning the constructs the compiler
// supports; the fuzzer mutates them (and the injection coordinates) from
// here. Invalid mutants are rejected by the front end and skipped.
var fuzzSeeds = []string{
	`void main() { output(1 + 2 * 3); }`,
	`void main() {
		int s = 0;
		for (int i = 0; i < 20; i = i + 1) { s = s + i; }
		output(s);
	}`,
	`int f(int x) { if (x < 2) { return x; } return f(x - 1) + f(x - 2); }
	void main() { output(f(9)); }`,
	`void main() {
		int *p = malloc(32);
		p[0] = 5; p[1] = p[0] * 3;
		output(p[1] / p[0]);
		free(p);
	}`,
	`double g[8];
	void main() {
		for (int i = 0; i < 8; i = i + 1) { g[i] = (double)i * 0.5; }
		double s = 0.0;
		for (int i = 0; i < 8; i = i + 1) { s = s + g[i]; }
		output(s);
	}`,
	`void main() {
		long a = 7;
		int b = 3;
		while (b > 0) { a = a * a % 1000003; b = b - 1; }
		output(a); output((int)a << 2);
	}`,
	`void main() { int z = 0; output(10 / z); }`,
	`void main() { abort(); }`,
}

// FuzzDifferential is the engine equivalence fuzzer: any program the
// front end accepts must compile to bytecode and produce records
// bit-identical to the walker (including under injection) — never a
// compile error, never a panic, never a divergence.
func FuzzDifferential(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src, int64(3), 0)
		f.Add(src, int64(50), 17)
	}
	f.Fuzz(func(t *testing.T, src string, injEvent int64, injBit int) {
		m, err := lang.Compile("fuzz", src)
		if err != nil {
			t.Skip()
		}
		prog, err := vm.Compile(m, vm.Options{})
		if err != nil {
			t.Fatalf("vm.Compile rejected a verified module: %v", err)
		}
		fuzzBoth(t, m, prog, injEvent, injBit)
	})
}

// FuzzDifferentialIR fuzzes the IR the front end never emits: it mutates
// the textual IR of the built-in kernels and of the edge-case modules,
// keeps what ir.Parse (which verifies) accepts, and holds the engines to
// FuzzDifferential's bit-identity. Mutants reach shapes MiniC never
// produces: a compare used outside its block's branch, an address feeding
// a load and other users, phis, unusual widths and strides.
func FuzzDifferentialIR(f *testing.F) {
	for i, b := range bench.All() {
		f.Add(ir.Print(b.MustModule(1)), int64(997*i+3), i)
	}
	for i, tc := range edgeCaseModules {
		f.Add(tc.ir, int64(3+i), 17+i)
	}
	f.Fuzz(func(t *testing.T, text string, injEvent int64, injBit int) {
		m, err := ir.Parse(text)
		if err != nil {
			t.Skip()
		}
		prog, err := vm.Compile(m, vm.Options{})
		if err != nil {
			// The one verified shape the VM refuses: a function over
			// the register-slot limit.
			if errors.Is(err, vm.ErrUnsupported) && strings.Contains(err.Error(), "register file needs") {
				t.Skip()
			}
			t.Fatalf("vm.Compile rejected a verified module: %v", err)
		}
		fuzzBoth(t, m, prog, injEvent, injBit)
	})
}

// fuzzBoth runs m on the walker and prog on the VM under a 50k-event
// budget, recorded and then with one fault at the clamped coordinate,
// and fails on any difference.
func fuzzBoth(t *testing.T, m *ir.Module, prog *vm.Program, injEvent int64, injBit int) {
	t.Helper()
	cfg := interp.Config{Record: true, MaxDynInstrs: 50_000}
	walker, werr := interp.Run(m, cfg)
	vmr, verr := prog.Run(cfg)
	if (werr == nil) != (verr == nil) {
		t.Fatalf("engine error mismatch: walker=%v vm=%v", werr, verr)
	}
	if werr != nil {
		if werr.Error() != verr.Error() {
			t.Fatalf("fatal error text mismatch:\nwalker=%v\nvm=%v", werr, verr)
		}
		return
	}
	diffResults(t, "fuzz", walker, vmr)

	// Replay with a fault at the (clamped) fuzzed coordinate.
	n := walker.Trace.NumEvents()
	if n == 0 {
		return
	}
	ev := injEvent % n
	if ev < 0 {
		ev = -ev % n
	}
	w := trace.DefWidth(walker.Trace.Instr(ev))
	if w == 0 {
		return
	}
	bit := injBit % w
	if bit < 0 {
		bit = -bit % w
	}
	wi := &interp.Injection{Event: ev, Bit: bit}
	vi := &interp.Injection{Event: ev, Bit: bit}
	fw, werr := interp.Run(m, interp.Config{MaxDynInstrs: 50_000, Injection: wi})
	fv, verr := prog.Run(interp.Config{MaxDynInstrs: 50_000, Injection: vi})
	if (werr == nil) != (verr == nil) {
		t.Fatalf("faulty-run error mismatch: walker=%v vm=%v", werr, verr)
	}
	if werr != nil {
		return
	}
	if fw.Hang != fv.Hang || fw.DynInstrs != fv.DynInstrs {
		t.Fatalf("faulty-run outcome mismatch: walker hang=%v dyn=%d, vm hang=%v dyn=%d",
			fw.Hang, fw.DynInstrs, fv.Hang, fv.DynInstrs)
	}
	diffExc(t, "fuzz-fault", fw.Exception, fv.Exception)
	diffOutputs(t, "fuzz-fault", fw.Outputs, fv.Outputs)
}
