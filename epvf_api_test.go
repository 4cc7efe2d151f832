package epvf_test

import (
	"strings"
	"testing"

	epvf "repro"
)

const apiKernel = `
void main() {
  int n = 24;
  long *a = malloc(n * 8);
  int i;
  for (i = 0; i < n; i = i + 1) { a[i] = i * 11; }
  long s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}
`

func TestPublicWorkflow(t *testing.T) {
	m, err := epvf.CompileMiniC("kernel", apiKernel)
	if err != nil {
		t.Fatalf("CompileMiniC: %v", err)
	}
	run, err := epvf.Run(m)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Exception != nil || len(run.Outputs) != 1 {
		t.Fatalf("unexpected run result: %+v", run)
	}
	res, err := epvf.Analyze(m)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	a := res.Analysis
	if !(a.EPVF() > 0 && a.EPVF() < a.PVF() && a.PVF() <= 1) {
		t.Errorf("metric ordering violated: PVF=%v ePVF=%v", a.PVF(), a.EPVF())
	}

	camp, err := epvf.Campaign(m, res.Golden, epvf.CampaignConfig{Runs: 200, FI: epvf.InjectionConfig{Seed: 1}})
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if camp.Rate(epvf.OutcomeCrash) == 0 {
		t.Error("no crashes in 200 injections")
	}
	acc := epvf.MeasureAccuracy(m, res, camp, 60, epvf.InjectionConfig{Seed: 2})
	if acc.Recall < 0.7 || acc.Precision < 0.6 {
		t.Errorf("accuracy implausibly low: %+v", acc)
	}
}

func TestPublicBenchmarks(t *testing.T) {
	names := epvf.BenchmarkNames()
	if len(names) != 11 {
		t.Fatalf("BenchmarkNames = %d entries", len(names))
	}
	m, err := epvf.Benchmark("mm", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "mm" {
		t.Errorf("module name %q", m.Name)
	}
	if _, err := epvf.Benchmark("bogus", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestPublicProtection(t *testing.T) {
	m, err := epvf.CompileMiniC("kernel", apiKernel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := epvf.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := epvf.Protect(m, res, epvf.ProtectByEPVF, 0.24)
	if err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if len(ids) == 0 {
		t.Fatal("empty protection plan")
	}
	// The protected module still computes the same answer.
	run, err := epvf.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if run.Exception != nil || run.Outputs[0].Bits != res.Golden.Outputs[0].Bits {
		t.Error("protection changed program behaviour")
	}
	// Replaying the plan on a fresh compile works too.
	m2, _ := epvf.CompileMiniC("kernel", apiKernel)
	if err := epvf.ProtectByIDs(m2, ids); err != nil {
		t.Fatalf("ProtectByIDs: %v", err)
	}
	if _, err := epvf.Protect(m2, res, epvf.ProtectionScheme(99), 0.1); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestPublicSampling(t *testing.T) {
	m, err := epvf.Benchmark("mm", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := epvf.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	est := epvf.SampledEPVF(res, 0.10)
	full := res.Analysis.EPVF()
	if d := est - full; d > 0.1 || d < -0.1 {
		t.Errorf("sampled %.3f vs full %.3f", est, full)
	}
	if nv := epvf.SamplingVariance(res, 3, 5); nv < 0 || nv > 3 {
		t.Errorf("normalized variance out of range: %v", nv)
	}
}

func TestPublicPrintIR(t *testing.T) {
	m, err := epvf.CompileMiniC("kernel", apiKernel)
	if err != nil {
		t.Fatal(err)
	}
	if s := epvf.PrintIR(m); !strings.Contains(s, "define void @main()") {
		t.Error("PrintIR output malformed")
	}
}

func TestPublicParseIR(t *testing.T) {
	m, err := epvf.CompileMiniC("kernel", apiKernel)
	if err != nil {
		t.Fatal(err)
	}
	text := epvf.PrintIR(m)
	back, err := epvf.ParseIR(text)
	if err != nil {
		t.Fatalf("ParseIR: %v", err)
	}
	if epvf.PrintIR(back) != text {
		t.Error("PrintIR/ParseIR round trip not stable")
	}
	r1, err := epvf.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := epvf.Run(back)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outputs[0].Bits != r2.Outputs[0].Bits {
		t.Error("reparsed module computes a different result")
	}
}
