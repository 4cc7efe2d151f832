package epvf_test

import (
	"fmt"

	epvf "repro"
)

// Example demonstrates the core workflow: compile a MiniC kernel, run the
// ePVF analysis, and confirm the metric ordering the methodology
// guarantees (SDC rate <= ePVF <= PVF).
func Example() {
	m, err := epvf.CompileMiniC("demo", `
void main() {
  long *a = malloc(16 * 8);
  int i;
  for (i = 0; i < 16; i = i + 1) { a[i] = i; }
  long s = 0;
  for (i = 0; i < 16; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}`)
	if err != nil {
		fmt.Println("compile:", err)
		return
	}
	res, err := epvf.Analyze(m)
	if err != nil {
		fmt.Println("analyze:", err)
		return
	}
	a := res.Analysis
	fmt.Println("ePVF below PVF:", a.EPVF() < a.PVF())
	fmt.Println("crash bits found:", a.CrashResult.CrashBitCount > 0)
	fmt.Println("output:", res.Golden.Outputs[0].Bits)
	// Output:
	// ePVF below PVF: true
	// crash bits found: true
	// output: 120
}

// ExampleCampaign shows a small fault-injection campaign against the
// analyzed program.
func ExampleCampaign() {
	m, _ := epvf.CompileMiniC("demo", `
void main() {
  int x = 2;
  int i;
  for (i = 0; i < 10; i = i + 1) { x = x * 2; }
  output(x);
}`)
	res, _ := epvf.Analyze(m)
	camp, err := epvf.Campaign(m, res.Golden, epvf.CampaignConfig{Runs: 100, FI: epvf.InjectionConfig{Seed: 42}})
	if err != nil {
		fmt.Println("campaign:", err)
		return
	}
	fmt.Println("runs:", len(camp.Records))
	total := camp.Counts[epvf.OutcomeBenign] + camp.Counts[epvf.OutcomeSDC] +
		camp.Counts[epvf.OutcomeCrash] + camp.Counts[epvf.OutcomeHang] +
		camp.Counts[epvf.OutcomeDetected]
	fmt.Println("outcomes partition:", total == len(camp.Records))
	// Output:
	// runs: 100
	// outcomes partition: true
}
