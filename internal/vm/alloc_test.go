package vm_test

import (
	"testing"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/vm"
)

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
	total := colBytes(tr.InstrID) + colBytes(tr.Result) + colBytes(tr.Acc) +
		colBytes(tr.OpBase) + colBytes(tr.Ops) + colBytes(tr.OpDefs) +
		colBytes(tr.Addr) + colBytes(tr.SP) + colBytes(tr.MemDef) + colBytes(tr.VMAVer)
	perEvent := float64(total) / float64(tr.NumEvents())
	t.Logf("lulesh: %d column bytes for %d events (%.1f B per event)", total, tr.NumEvents(), perEvent)
	if perEvent > 80 {
		t.Fatalf("lulesh trace keeps %.1f B per event, want <= 80", perEvent)
	}
}
