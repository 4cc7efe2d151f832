package vm_test

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/vm"
)

// recordingSlack bounds what a warm recording of lulesh allocates beside
// its trace's columns: about 240 KiB today, while a single access chunk
// holds 448 KiB.
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
		colBytes(tr.OpBase) + colBytes(tr.Ops) + colBytes(tr.OpDefs) +
		colBytes(tr.Addr) + colBytes(tr.SP) + colBytes(tr.MemDef) + colBytes(tr.VMAVer)
}

// colBytes is the memory a column holds: its capacity times its element
// size.
func colBytes[T any](col []T) int {
	var z T
	return cap(col) * int(unsafe.Sizeof(z))
}

// TestTraceBytesPerEvent gates the recorded trace's footprint: the bytes
// its columns hold, per lulesh event, stay at most 80. A layout that kept
// an instruction pointer and two slice headers per event (96 B before any
// operand) cannot pass. Column capacities follow Go's append growth, so
// the figure is deterministic.
func TestTraceBytesPerEvent(t *testing.T) {
	res, err := recordLulesh(t).Run(interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	total := traceColumnBytes(tr)
	perEvent := float64(total) / float64(tr.NumEvents())
	t.Logf("lulesh: %d column bytes for %d events (%.1f B per event)", total, tr.NumEvents(), perEvent)
	if perEvent > 80 {
		t.Fatalf("lulesh trace keeps %.1f B per event, want <= 80", perEvent)
	}
}

// TestRecordingBytesPerEvent gates chunk recycling: with the collector
// off, a warm recording of lulesh allocates the columns of the trace it
// returns plus a fixed slack for the run itself (address space, frames,
// VMA snapshots, the memory-def map), and never its recording chunks.
// Chunks allocated per run would add several MB.
func TestRecordingBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	prog := recordLulesh(t)
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
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
	tr := res.Trace
	cols := traceColumnBytes(tr)
	got := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("lulesh: %d B allocated by a warm recording, %d B of them columns (%d events)", got, cols, tr.NumEvents())
	if got > cols+recordingSlack {
		t.Fatalf("warm lulesh recording allocates %d B, want <= %d column bytes + %d", got, cols, recordingSlack)
	}
}
