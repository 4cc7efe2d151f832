// Quickstart: compile a small MiniC kernel, run the full ePVF analysis,
// and print the vulnerability metrics — the five-minute tour of the
// public API.
package main

import (
	"fmt"
	"log"

	epvf "repro"
)

// A tiny stencil kernel in MiniC, the C-like language the library
// compiles to its LLVM-like IR. output() marks program outputs — the
// roots of the ACE analysis.
const src = `
void main() {
  int n = 32;
  double *a = malloc(n * 8);
  double *b = malloc(n * 8);
  int i;
  for (i = 0; i < n; i = i + 1) { a[i] = (double)i * 0.5; }
  for (i = 1; i < n - 1; i = i + 1) {
    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
  }
  for (i = 1; i < n - 1; i = i + 1) { output(b[i]); }
  free(a);
  free(b);
}
`

func main() {
	// Compile to the project's LLVM-like IR.
	m, err := epvf.CompileMiniC("stencil", src)
	if err != nil {
		log.Fatalf("compile: %v", err)
	}

	// One recorded golden execution on the simulated Linux process, then
	// the ACE analysis, the crash model and the range-propagation model.
	res, err := epvf.Analyze(m)
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	a := res.Analysis
	fmt.Printf("dynamic instructions : %d\n", res.Golden.DynInstrs)
	fmt.Printf("ACE-graph nodes      : %d\n", a.ACENodes)
	fmt.Printf("PVF                  : %.4f\n", a.PVF())
	fmt.Printf("ePVF                 : %.4f\n", a.EPVF())
	fmt.Printf("estimated crash rate : %.1f%%\n", 100*a.CrashRate())
	fmt.Printf("PVF bits removed     : %.1f%%\n", 100*a.VulnerableBitReduction())

	// The crash-causing bits ePVF subtracts are exactly the bits whose
	// corruption the crash model predicts to raise SIGSEGV — a quick
	// fault-injection campaign confirms the estimate.
	camp, err := epvf.Campaign(m, res.Golden, epvf.CampaignConfig{Runs: 500, FI: epvf.InjectionConfig{Seed: 1}})
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}
	fmt.Printf("FI crash rate        : %.1f%% (%d runs)\n",
		100*camp.Rate(epvf.OutcomeCrash), len(camp.Records))
	fmt.Printf("FI SDC rate          : %.1f%%  (<= ePVF bound %.1f%%)\n",
		100*camp.Rate(epvf.OutcomeSDC), 100*a.EPVF())
}
