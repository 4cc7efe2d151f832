package vm_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/vm"
)

// TestRecordingAllocsPerEvent gates the recording path's allocations: the
// events' operand slices come from chunked slabs, so a recorded lulesh
// run allocates at most once per hundred events.
func TestRecordingAllocsPerEvent(t *testing.T) {
	b, _ := bench.Get("lulesh")
	prog, err := vm.Compile(b.MustModule(1), vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var events int
	allocs := testing.AllocsPerRun(3, func() {
		res, err := prog.Run(interp.Config{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		events = len(res.Trace.Events)
	})
	if perEvent := allocs / float64(events); perEvent > 0.01 {
		t.Fatalf("recording lulesh: %.0f allocations for %d events (%.4f per event), want <= 0.01",
			allocs, events, perEvent)
	}
}
