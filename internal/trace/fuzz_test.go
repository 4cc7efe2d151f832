package trace_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/epvf"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

// corruptions are the saved-trace defects Load must reject: each would
// otherwise index past a column (or misalign operand slots) once the
// trace is analyzed.
var corruptions = []struct {
	name   string
	mutate func(tr *trace.Trace)
}{
	{"forward operand def", func(tr *trace.Trace) {
		ev := firstEvent(tr, func(ev int64) bool { return len(tr.OpDefsOf(ev)) > 0 })
		tr.OpDefs[tr.OpBase[ev]] = tr.NumEvents() + 5
	}},
	{"forward memory def", func(tr *trace.Trace) {
		ev := firstEvent(tr, func(ev int64) bool { return tr.Instr(ev).Op == ir.OpLoad })
		tr.MemDef[tr.Acc[ev]] = tr.NumEvents() + 5
	}},
	{"extra operand", func(tr *trace.Trace) {
		// Event 0 records one operand more than its instruction has.
		at := tr.OpBase[1]
		tr.Ops = slices.Insert(tr.Ops, at, 0)
		tr.OpDefs = slices.Insert(tr.OpDefs, at, trace.NoDef)
		for i := 1; i < len(tr.OpBase); i++ {
			tr.OpBase[i]++
		}
	}},
	{"forward output def", func(tr *trace.Trace) {
		tr.Outputs[0].Def = tr.Outputs[0].EventIdx
	}},
	{"output past the last event", func(tr *trace.Trace) {
		tr.Outputs[0].EventIdx = tr.NumEvents()
	}},
	{"short column", func(tr *trace.Trace) {
		tr.Result = tr.Result[:len(tr.Result)-1]
	}},
	{"non-monotone operand offsets", func(tr *trace.Trace) {
		ev := firstEvent(tr, func(ev int64) bool { return len(tr.OpsOf(ev)) > 0 })
		tr.OpBase[ev+1] = tr.OpBase[ev] - 1
	}},
	{"instruction ID out of range", func(tr *trace.Trace) {
		tr.InstrID[0] = int32(tr.Module.NumInstrs())
	}},
	{"load with no access entry", func(tr *trace.Trace) {
		ev := firstEvent(tr, func(ev int64) bool { return tr.Instr(ev).Op == ir.OpLoad })
		tr.Acc[ev] = -1
	}},
	{"repeated access number", func(tr *trace.Trace) {
		first := firstEvent(tr, tr.IsMemAccess)
		next := firstEvent(tr, func(ev int64) bool { return ev > first && tr.IsMemAccess(ev) })
		tr.Acc[next] = tr.Acc[first]
	}},
}

func firstEvent(tr *trace.Trace, ok func(ev int64) bool) int64 {
	for ev := range tr.NumEvents() {
		if ok(ev) {
			return ev
		}
	}
	panic("no matching event")
}

// fuzzKernel is kernel with shorter loops, so fuzz inputs stay small.
const fuzzKernel = `
void main() {
  long *a = malloc(3 * 8);
  int i;
  for (i = 0; i < 3; i = i + 1) { a[i] = i * 9; }
  long s = 0;
  for (i = 0; i < 3; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}
`

// saved returns the recorded trace of src as Save writes it, after
// applying mutate (nil saves it as recorded).
func saved(t testing.TB, src string, mutate func(*trace.Trace)) []byte {
	t.Helper()
	tr := record(t, src)
	if mutate != nil {
		mutate(tr)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsCorruptTraces(t *testing.T) {
	m, err := lang.Compile("serial", kernel)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corruptions {
		if _, err := trace.Load(bytes.NewReader(saved(t, kernel, c.mutate)), m); err == nil {
			t.Errorf("%s: Load accepted the corrupt trace", c.name)
		}
	}
}

// FuzzLoad: whatever bytes Load accepts must analyze without panicking,
// and no input may make Load itself panic.
func FuzzLoad(f *testing.F) {
	m, err := lang.Compile("serial", fuzzKernel)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved(f, fuzzKernel, nil))
	for _, c := range corruptions {
		f.Add(saved(f, fuzzKernel, c.mutate))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Load(bytes.NewReader(data), m)
		if err != nil {
			return
		}
		epvf.AnalyzeTrace(tr, epvf.Config{})
	})
}
