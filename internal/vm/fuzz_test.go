package vm_test

import (
	"testing"

	"repro/internal/interp"
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
// front end accepts must either compile to bytecode and produce records
// bit-identical to the walker (including under injection), or be rejected
// with a clean error — never a panic, never a divergence.
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
			// Unsupported constructs fall back to the walker; that is a
			// policy decision, not a bug. It must be a clean error, which
			// reaching this line (no panic) already proves.
			return
		}
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
	})
}
