package vm_test

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/vm"
)

// recordingSlack bounds what a warm recording of lulesh allocates beside
// its trace's columns: about 50 KiB today, with the run's pages and frames
// recycled, while a single access chunk holds 384 KiB.
const recordingSlack = 512 << 10

// recordLulesh compiles lulesh for the VM.
func recordLulesh(t *testing.T) *vm.Program {
	t.Helper()
	b, _ := bench.Get("lulesh")
	prog, err := vm.Compile(b.MustModule(1), vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRecordingAllocsPerEvent gates the recording path's allocations:
// events append to the trace's flat columns, which grow geometrically, so
// a recorded lulesh run allocates at most once per hundred events.
func TestRecordingAllocsPerEvent(t *testing.T) {
	prog := recordLulesh(t)
	var events int64
	allocs := testing.AllocsPerRun(3, func() {
		res, err := prog.Run(interp.Config{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		events = res.Trace.NumEvents()
	})
	if perEvent := allocs / float64(events); perEvent > 0.01 {
		t.Fatalf("recording lulesh: %.0f allocations for %d events (%.4f per event), want <= 0.01",
			allocs, events, perEvent)
	}
}

// traceColumnBytes is the memory tr's columns hold.
func traceColumnBytes(tr *trace.Trace) int {
	return colBytes(tr.InstrID) + colBytes(tr.Result) + colBytes(tr.Acc) +
		colBytes(tr.OpBase) + colBytes(tr.OpDefs) + colBytes(tr.Imm) +
		colBytes(tr.Addr) + colBytes(tr.SP) + colBytes(tr.MemDef) + colBytes(tr.VMAVer)
}

// colBytes is the memory a column holds: its capacity times its element
// size.
func colBytes[T any](col []T) int {
	var z T
	return cap(col) * int(unsafe.Sizeof(z))
}

// TestTraceBytesPerEvent gates the recorded trace's footprint: the bytes
// its columns hold, per lulesh event, stay at most 40. A layout that kept
// every operand's value beside its def, or 64-bit index columns (about
// 58 B per event), cannot pass. Columns are allocated at their exact
// size, so the figure is deterministic.
func TestTraceBytesPerEvent(t *testing.T) {
	res, err := recordLulesh(t).Run(interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	total := traceColumnBytes(tr)
	perEvent := float64(total) / float64(tr.NumEvents())
	t.Logf("lulesh: %d column bytes for %d events (%.1f B per event)", total, tr.NumEvents(), perEvent)
	if perEvent > 40 {
		t.Fatalf("lulesh trace keeps %.1f B per event, want <= 40", perEvent)
	}
}

// TestRecordingBytesPerEvent gates chunk recycling: with the collector
// off, a warm recording of lulesh allocates the columns of the trace it
// returns plus a fixed slack for the run itself (address space, frames,
// VMA snapshots, the memory-def map), and never its recording chunks.
// Chunks allocated per run would add several MB. The bound holds at
// GOMAXPROCS(1): at the default, a recording that runs on another P than
// the one its chunks were pooled on misses them under load, so that
// recording's bytes are only logged.
func TestRecordingBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	prog := recordLulesh(t)
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	// warmRecording records lulesh twice and returns the bytes the second
	// recording allocates and the bytes its trace's columns hold.
	warmRecording := func() (got, cols int) {
		if _, err := prog.Run(interp.Config{Record: true}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := prog.Run(interp.Config{Record: true})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		cols = traceColumnBytes(res.Trace)
		t.Logf("lulesh at GOMAXPROCS %d: %d B allocated by a warm recording, %d B of them columns (%d events)",
			runtime.GOMAXPROCS(0), after.TotalAlloc-before.TotalAlloc, cols, res.Trace.NumEvents())
		return int(after.TotalAlloc - before.TotalAlloc), cols
	}
	warmRecording()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got, cols := warmRecording(); got > cols+recordingSlack {
		t.Fatalf("warm lulesh recording allocates %d B, want <= %d column bytes + %d", got, cols, recordingSlack)
	}
}

// TestResumeAllocs gates what a warm resumed run reuses: once a lulesh
// program has run a set of injections resumed from its chain, running the
// same set again takes every frame from its machine's frame pools and
// every page from the page pool. The frame pools do not grow, and no run
// allocates a page's worth of bytes beside its outputs: what is left is
// the address-space fork, the result and the exception.
func TestResumeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	prog := recordLulesh(t)
	golden, err := prog.Run(interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := golden.Trace
	cfg := interp.Config{MaxDynInstrs: 10 * golden.DynInstrs}
	chain, err := snapshot.NewChain(prog, cfg, golden.DynInstrs)
	if err != nil {
		t.Fatal(err)
	}
	cps := chain.Checkpoints()
	conv := &vm.Convergence{Golden: golden, Checkpoints: cps}
	var targets []int64
	for k := 0; k < len(cps); k += max(1, len(cps)/16) {
		ev := cps[k].Event()
		for trace.DefWidth(tr.Instr(ev)) == 0 {
			ev++
		}
		targets = append(targets, ev)
	}
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass := func(measure bool) {
		for i, ev := range targets {
			inj := &interp.Injection{Event: ev, Bit: i % trace.DefWidth(tr.Instr(ev))}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := vm.Resume(chain.Nearest(ev), vm.ResumeOptions{Injection: inj, Convergence: conv})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			rest := int(after.TotalAlloc-before.TotalAlloc) - cap(res.Outputs)*int(unsafe.Sizeof(trace.Output{}))
			if measure && rest >= mem.PageSize {
				t.Errorf("warm resume at event %d allocates %d B beside its outputs, want < %d (no page)", ev, rest, mem.PageSize)
			}
		}
	}
	pass(false)
	frames := vm.PooledFrames(prog)
	pass(true)
	if got := vm.PooledFrames(prog); got != frames {
		t.Errorf("warm resumes grew the frame pools from %d to %d frames", frames, got)
	}
	t.Logf("%d resumes, %d pooled frames", len(targets), frames)
}
