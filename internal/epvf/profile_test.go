package epvf

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/vm"
)

// vmRejectedModule returns kernelSrc's module with one extra GEP in main
// whose element stride (4.8 GB) does not fit the VM's 32-bit operand, so
// vm.Compile rejects the module while the walker runs it.
func vmRejectedModule(t *testing.T) *ir.Module {
	t.Helper()
	m, err := lang.Compile("fallback", kernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := ir.Print(m)
	const tail = "  ret void\n}"
	i := strings.LastIndex(text, tail)
	if i < 0 {
		t.Fatalf("no ret void in main:\n%s", text)
	}
	text = text[:i] + `  %big = malloc i64*, i64 8
  %wide = bitcast i64* %big to [600000000 x i64]*
  %first = getelementptr [600000000 x i64], [600000000 x i64]* %wide, i64 0
  %narrow = bitcast [600000000 x i64]* %first to i64*
  store i64 5, i64* %narrow
  free i64* %big
` + text[i:]
	m, err = ir.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if _, err := vm.Compile(m, vm.Options{}); !errors.Is(err, vm.ErrUnsupported) {
		t.Fatalf("vm.Compile = %v, want ErrUnsupported", err)
	}
	return m
}

// TestProfileFallsBackToWalker: a module the VM rejects still profiles,
// on the walker, into the same trace interp.Run records, and the
// fallback is counted.
func TestProfileFallsBackToWalker(t *testing.T) {
	m := vmRejectedModule(t)
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	fallbacks := reg.Counter("epvf_vm_fallbacks_total", "reason", "compile")

	before := fallbacks.Value()
	got, err := Profile(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := fallbacks.Value() - before; d != 1 {
		t.Errorf("epvf_vm_fallbacks_total{reason=\"compile\"} moved by %d, want 1", d)
	}
	want, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil || got.Exception != nil || got.DynInstrs != want.DynInstrs {
		t.Fatalf("profile: trace %v, exception %v, %d instrs; walker ran %d", got.Trace != nil, got.Exception, got.DynInstrs, want.DynInstrs)
	}
	gt, wt := got.Trace, want.Trace
	if gt.NumEvents() != wt.NumEvents() {
		t.Fatalf("profile recorded %d events, walker %d", gt.NumEvents(), wt.NumEvents())
	}
	for i := range wt.NumEvents() {
		if ge, we := gt.Event(i), wt.Event(i); !reflect.DeepEqual(ge, we) {
			t.Fatalf("event %d differs:\nprofile %+v\n walker %+v", i, ge, we)
		}
	}
	if !reflect.DeepEqual(got.Trace.Outputs, want.Trace.Outputs) {
		t.Fatalf("outputs differ: %+v vs %+v", got.Trace.Outputs, want.Trace.Outputs)
	}
}

// TestAnalyzeModuleRecordsPhaseSpans: one traced AnalyzeModule records
// each analysis phase once — the profile, and the DDG/ACE and model
// phases as children of the trace analysis — so a phase breakdown of
// the pipeline never silently loses a stage.
func TestAnalyzeModuleRecordsPhaseSpans(t *testing.T) {
	m, err := lang.Compile("t", kernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(nil)
	obs.SetDefaultTracer(tracer)
	_, _, err = AnalyzeModule(m, Config{})
	obs.SetDefaultTracer(nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]obs.SpanRecord{}
	for _, rec := range tracer.Spans() {
		byName[rec.Name] = append(byName[rec.Name], rec)
	}
	for _, name := range []string{"epvf_profile", "epvf_ddg_ace", "epvf_models", "epvf_analyze_trace"} {
		if n := len(byName[name]); n != 1 {
			t.Errorf("span %s recorded %d times, want 1", name, n)
		}
	}
	if t.Failed() {
		return
	}
	root := byName["epvf_analyze_trace"][0].SpanID
	for _, name := range []string{"epvf_ddg_ace", "epvf_models"} {
		if p := byName[name][0].ParentID; p != root {
			t.Errorf("span %s has parent %q, want epvf_analyze_trace (%q)", name, p, root)
		}
	}
}
