package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/trace"
	"repro/internal/vm"
)

// dropRecycledChunks empties the recorder's chunk pools: a pooled object
// survives at most two collections.
func dropRecycledChunks() {
	runtime.GC()
	runtime.GC()
}

// sameTrace fails t unless got has every column, output and VMA snapshot
// of want.
func sameTrace(t *testing.T, label string, got, want *trace.Trace) {
	t.Helper()
	names := []string{"InstrID", "Result", "Acc", "OpBase", "OpDefs", "Imm", "Addr", "SP", "MemDef", "VMAVer"}
	g, w := columns(got), columns(want)
	for i, name := range names {
		if !reflect.DeepEqual(g[i], w[i]) {
			t.Errorf("%s: column %s differs from a fresh recording", label, name)
		}
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) || !reflect.DeepEqual(got.Snapshots, want.Snapshots) ||
		got.Layout != want.Layout {
		t.Errorf("%s: outputs, snapshots or layout differ from a fresh recording", label)
	}
}

// cutRuns returns two recordings of lavamd that stop early: one on an
// exception, with a high bit flipped in the address of its first computed
// load, and one on the instruction budget, which ends the run on a store
// that has retired but not yet executed.
func cutRuns(t *testing.T) func() (crashed, cut *trace.Trace) {
	t.Helper()
	b, _ := bench.Get("lavamd")
	golden := recordKernel(t, b)
	addrDef, store := trace.NoDef, trace.NoDef
	for ev := range golden.NumEvents() {
		switch op := golden.Instr(ev).Op; {
		case op == ir.OpLoad && addrDef == trace.NoDef:
			addrDef = max(int64(golden.OpDefsOf(ev)[0]), trace.NoDef)
		case op == ir.OpStore && ev > golden.NumEvents()/2 && store == trace.NoDef:
			store = ev
		}
	}
	if addrDef == trace.NoDef || store == trace.NoDef {
		t.Fatal("lavamd: no load with a computed address or no store in its second half")
	}
	prog, err := vm.Compile(b.MustModule(1), vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg interp.Config) *interp.Result {
		cfg.Record = true
		res, err := prog.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace.NumEvents() >= golden.NumEvents() {
			t.Fatal("a lavamd run meant to stop early ran to the end")
		}
		return res
	}
	return func() (crashed, cut *trace.Trace) {
		res := run(interp.Config{Injection: &interp.Injection{Event: addrDef, Bit: 62}})
		if res.Exception == nil {
			t.Fatal("the injected lavamd run did not stop on an exception")
		}
		crashed = res.Trace
		res = run(interp.Config{MaxDynInstrs: store})
		if !res.Hang {
			t.Fatal("the budgeted lavamd run did not stop on its budget")
		}
		return crashed, res.Trace
	}
}

// TestRecycledChunksMatchFreshRecording: chunks that earlier recordings
// filled leave nothing behind in the next trace, whether that run ends
// normally or stops early.
func TestRecycledChunksMatchFreshRecording(t *testing.T) {
	lulesh, _ := bench.Get("lulesh")
	lavamd, _ := bench.Get("lavamd")
	early := cutRuns(t)
	dropRecycledChunks()
	freshCrashed, freshCut := early()
	dropRecycledChunks()
	fresh := recordKernel(t, lulesh)

	recordKernel(t, lavamd)
	crashed, cut := early()
	sameTrace(t, "lavamd stopped by an exception", crashed, freshCrashed)
	sameTrace(t, "lavamd stopped by its budget", cut, freshCut)
	got := recordKernel(t, lulesh)
	sameTrace(t, "lulesh after lavamd and two cut runs", got, fresh)
	sum := sha256.Sum256(saveBytes(t, got))
	if h := hex.EncodeToString(sum[:]); h != luleshSavedSHA256 {
		t.Errorf("lulesh saved trace sha256 = %s, want %s", h, luleshSavedSHA256)
	}
}

// TestConcurrentRecordingsShareChunks: recordings running at once draw on
// one chunk pool, and each still equals its serial recording.
func TestConcurrentRecordingsShareChunks(t *testing.T) {
	names := []string{"lavamd", "lulesh", "nw", "hotspot"}
	serial := make([]*trace.Trace, len(names))
	for i, name := range names {
		b, _ := bench.Get(name)
		serial[i] = recordKernel(t, b)
	}
	got := make([]*trace.Trace, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		b, _ := bench.Get(name)
		m := b.MustModule(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := vm.Compile(m, vm.Options{})
			if err != nil {
				errs[i] = err
				return
			}
			res, err := prog.Run(interp.Config{Record: true})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Trace
		}()
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		sameTrace(t, name+" recorded concurrently", got[i], serial[i])
	}
}
