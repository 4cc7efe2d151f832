// Selective-duplication case study (paper §V): protect the most SDC-prone
// instructions of the matrix-multiplication benchmark under a 24%
// performance-overhead budget, using the ePVF ranking and the hot-path
// baseline, and compare the resulting SDC rates via fault injection.
package main

import (
	"fmt"
	"log"

	epvf "repro"
)

const (
	budget = 0.24
	runs   = 1200
)

func main() {
	// Rank instructions on the analysis input...
	analysisModule, err := epvf.Benchmark("mm", 1)
	if err != nil {
		log.Fatalf("benchmark: %v", err)
	}
	res, err := epvf.Analyze(analysisModule)
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	// ...then evaluate on a larger input, as the paper does, replaying the
	// protection plan by static instruction ID onto the bigger build.
	baseSDC := sdcRate(nil)

	// Protect mutates the module it plans on, so each plan runs against
	// its own compile + analysis.
	epvfPlan, err := epvf.Protect(analysisModule, res, epvf.ProtectByEPVF, budget)
	if err != nil {
		log.Fatalf("plan (ePVF): %v", err)
	}
	hotModule := mustBench(1)
	res2, err := epvf.Analyze(hotModule)
	if err != nil {
		log.Fatal(err)
	}
	hotPlan, err := epvf.Protect(hotModule, res2, epvf.ProtectByHotPath, budget)
	if err != nil {
		log.Fatalf("plan (hot-path): %v", err)
	}

	epvfSDC := sdcRate(epvfPlan)
	hotSDC := sdcRate(hotPlan)

	fmt.Printf("overhead budget            : %.0f%%\n", budget*100)
	fmt.Printf("instructions (ePVF plan)   : %d\n", len(epvfPlan))
	fmt.Printf("instructions (hot plan)    : %d\n", len(hotPlan))
	fmt.Printf("SDC rate, no protection    : %.1f%%\n", 100*baseSDC)
	fmt.Printf("SDC rate, hot-path         : %.1f%%\n", 100*hotSDC)
	fmt.Printf("SDC rate, ePVF-guided      : %.1f%%\n", 100*epvfSDC)
	if epvfSDC < hotSDC {
		fmt.Printf("ePVF beats hot-path by     : %.0f%% relative\n", 100*(hotSDC-epvfSDC)/hotSDC)
	}
}

func mustBench(scale int) *epvf.Module {
	m, err := epvf.Benchmark("mm", scale)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

// sdcRate builds the evaluation-scale module, optionally applies a
// protection plan, and measures the SDC rate via fault injection.
func sdcRate(plan []int) float64 {
	m := mustBench(2)
	if plan != nil {
		if err := epvf.ProtectByIDs(m, plan); err != nil {
			log.Fatalf("applying plan: %v", err)
		}
	}
	res, err := epvf.Analyze(m)
	if err != nil {
		log.Fatalf("golden run: %v", err)
	}
	camp, err := epvf.Campaign(m, res.Golden, epvf.CampaignConfig{
		Runs: runs,
		FI:   epvf.InjectionConfig{Seed: 99, JitterWindow: 64 * 4096},
	})
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}
	return camp.Rate(epvf.OutcomeSDC)
}
