// Fault-injection accuracy study on a Rodinia-style benchmark: run an
// LLFI-style campaign under ASLR-jittered memory layouts, then measure how
// well the ePVF crash model predicts the observed crashes (the paper's
// recall and precision experiments, Figures 6 and 7).
package main

import (
	"fmt"
	"log"

	epvf "repro"
)

func main() {
	// pathfinder: the grid-traversal dynamic program from the paper's
	// suite (Table IV).
	m, err := epvf.Benchmark("pathfinder", 1)
	if err != nil {
		log.Fatalf("benchmark: %v", err)
	}
	res, err := epvf.Analyze(m)
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	// 1,500 single-bit flips into the source registers of executed
	// instructions. JitterWindow shifts the heap/stack bases per run, the
	// environmental nondeterminism that keeps the paper's accuracy below
	// 100%.
	cfg := epvf.CampaignConfig{
		Runs: 1500,
		FI:   epvf.InjectionConfig{Seed: 7, JitterWindow: 64 * 4096},
	}
	camp, err := epvf.Campaign(m, res.Golden, cfg)
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}

	fmt.Println("outcome distribution:")
	for _, o := range []epvf.Outcome{epvf.OutcomeCrash, epvf.OutcomeSDC, epvf.OutcomeHang, epvf.OutcomeBenign} {
		fmt.Printf("  %-8s %5.1f%%\n", o, 100*camp.Rate(o))
	}

	acc := epvf.MeasureAccuracy(m, res, camp, 300, cfg.FI)
	fmt.Printf("\ncrash-model recall    : %.1f%% over %d crashes (paper: 89%% avg)\n",
		100*acc.Recall, acc.RecallN)
	fmt.Printf("crash-model precision : %.1f%% over %d targeted injections (paper: 92%% avg)\n",
		100*acc.Precision, acc.PrecisionN)
	fmt.Printf("model crash estimate  : %.1f%% vs FI %.1f%%\n",
		100*res.Analysis.CrashRate(), 100*camp.Rate(epvf.OutcomeCrash))
}
