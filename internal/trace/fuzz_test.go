package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/epvf"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

// corruptions are the saved-trace defects Load must reject: each would
// otherwise index past the event list (or misalign operand slots) once
// the trace is analyzed.
var corruptions = []struct {
	name   string
	mutate func(tr *trace.Trace)
}{
	{"forward operand def", func(tr *trace.Trace) {
		e := firstEvent(tr, func(e *trace.Event) bool { return len(e.OpDefs) > 0 })
		e.OpDefs[0] = tr.NumEvents() + 5
	}},
	{"forward memory def", func(tr *trace.Trace) {
		e := firstEvent(tr, func(e *trace.Event) bool { return e.Instr.Op == ir.OpLoad })
		e.MemDef = tr.NumEvents() + 5
	}},
	{"extra operand", func(tr *trace.Trace) {
		e := firstEvent(tr, func(e *trace.Event) bool { return true })
		e.Ops = append(e.Ops, 0)
		e.OpDefs = append(e.OpDefs, trace.NoDef)
	}},
	{"forward output def", func(tr *trace.Trace) {
		tr.Outputs[0].Def = tr.Outputs[0].EventIdx
	}},
	{"output past the last event", func(tr *trace.Trace) {
		tr.Outputs[0].EventIdx = tr.NumEvents()
	}},
}

func firstEvent(tr *trace.Trace, ok func(*trace.Event) bool) *trace.Event {
	for i := range tr.Events {
		if ok(&tr.Events[i]) {
			return &tr.Events[i]
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
