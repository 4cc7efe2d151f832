// The two-version surfaces of the epvf command: `epvf diff` explains an
// edit — which functions changed and how every function's ePVF moved;
// `epvf gate` is the protect→re-verify loop for CI: it plans a protection
// pass under an overhead budget, applies it to a fresh copy of the
// module, re-analyzes and fails non-zero when the protected ePVF regresses
// past the threshold. Each runs one plain analysis per version.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/content"
	"repro/internal/epvf"
	"repro/internal/ir"
	"repro/internal/protect"
	"repro/internal/rangeprop"
	"repro/internal/report"
)

// epvfConfig maps the shared -depth flag onto the analysis config.
func epvfConfig(depth int) epvf.Config {
	return epvf.Config{Prop: rangeprop.Config{MaxDepth: depth}}
}

// funcChange says how function name differs between two module versions:
// added, removed, changed (its canonical IR differs) or unchanged.
func funcChange(oldM, newM *ir.Module, name string) string {
	of, nf := oldM.Func(name), newM.Func(name)
	switch {
	case of == nil:
		return "added"
	case nf == nil:
		return "removed"
	case content.FuncHash(of) != content.FuncHash(nf):
		return "changed"
	default:
		return "unchanged"
	}
}

// runDiff is `epvf diff [-depth N] <old> <new>`: analyze both versions of
// a program and report which functions the edit changed plus the
// per-function ePVF movement. Operands are MiniC sources or .ll textual
// IR, like -src.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("epvf diff", flag.ContinueOnError)
	depth := fs.Int("depth", 0, "propagation walk depth (0 = default, negative = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: epvf diff [-depth N] <old.c|old.ll> <new.c|new.ll>")
	}
	oldM, err := loadModule("", fs.Arg(0), 1)
	if err != nil {
		return err
	}
	newM, err := loadModule("", fs.Arg(1), 1)
	if err != nil {
		return err
	}
	cfg := epvfConfig(*depth)
	aOld, _, err := epvf.AnalyzeModule(oldM, cfg)
	if err != nil {
		return fmt.Errorf("analyze %s: %w", fs.Arg(0), err)
	}
	aNew, _, err := epvf.AnalyzeModule(newM, cfg)
	if err != nil {
		return fmt.Errorf("analyze %s: %w", fs.Arg(1), err)
	}

	// Per-function vulnerability, matched by name across the versions.
	oldFn := make(map[string]*epvf.FuncVuln)
	for _, v := range aOld.PerFunction() {
		oldFn[v.Func.Name] = v
	}
	newFn := make(map[string]*epvf.FuncVuln)
	for _, v := range aNew.PerFunction() {
		newFn[v.Func.Name] = v
	}
	t := report.NewTable("ePVF diff: "+fs.Arg(0)+" -> "+fs.Arg(1),
		"Function", "ePVF old", "ePVF new", "Delta", "Changed")
	row := func(name string) {
		var oe, ne float64
		if v := oldFn[name]; v != nil {
			oe = v.EPVF()
		}
		if v := newFn[name]; v != nil {
			ne = v.EPVF()
		}
		t.AddRow(name, fmt.Sprintf("%.4f", oe), fmt.Sprintf("%.4f", ne),
			fmt.Sprintf("%+.4f", ne-oe), funcChange(oldM, newM, name))
	}
	for _, f := range newM.Funcs {
		if _, dyn := newFn[f.Name]; dyn || oldFn[f.Name] != nil {
			row(f.Name)
		}
	}
	for _, f := range oldM.Funcs {
		if newM.Func(f.Name) == nil && oldFn[f.Name] != nil {
			row(f.Name)
		}
	}
	fmt.Print(t.String())
	oe, ne := aOld.EPVF(), aNew.EPVF()
	fmt.Printf("module ePVF: %.6f -> %.6f (%+.6f)\n", oe, ne, ne-oe)

	// Every function the edit touched, executed or not.
	var changed []string
	for _, f := range newM.Funcs {
		if funcChange(oldM, newM, f.Name) != "unchanged" {
			changed = append(changed, f.Name)
		}
	}
	for _, f := range oldM.Funcs {
		if newM.Func(f.Name) == nil {
			changed = append(changed, f.Name)
		}
	}
	if len(changed) == 0 {
		fmt.Println("functions: 0 changed")
	} else {
		fmt.Printf("functions: %d changed (%v)\n", len(changed), changed)
	}
	return nil
}

// runGate is `epvf gate -bench X -budget F -threshold T`: the
// resilience regression gate. It analyzes the baseline, plans the
// highest-ePVF protection set that fits the overhead budget, applies it
// to a fresh copy of the module (by static instruction ID), re-analyzes
// and fails non-zero when the protected module's ePVF exceeds the
// threshold a CI pipeline pins. (The static model charges the duplicated
// detector instructions as ACE mass, so the protected ePVF sits a little
// above the baseline by construction; the threshold absorbs that known
// offset, and moves only when the program itself regresses. Without
// -threshold the gate reports and exits zero.)
func runGate(args []string) error {
	fs := flag.NewFlagSet("epvf gate", flag.ContinueOnError)
	benchName := fs.String("bench", "", "built-in benchmark name")
	srcPath := fs.String("src", "", "MiniC source (or .ll IR) to gate instead of a benchmark")
	scale := fs.Int("scale", 1, "benchmark input scale")
	budget := fs.Float64("budget", 0.24, "protection overhead budget as a fraction of baseline dynamic instructions")
	threshold := fs.Float64("threshold", -1, "fail when the protected module's ePVF exceeds this (pin it in CI); negative reports without gating")
	depth := fs.Int("depth", 0, "propagation walk depth (0 = default, negative = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := loadModule(*benchName, *srcPath, *scale)
	if err != nil {
		return err
	}
	cfg := epvfConfig(*depth)

	t0 := time.Now()
	base, golden, err := epvf.AnalyzeModule(m, cfg)
	if err != nil {
		return fmt.Errorf("baseline analysis: %w", err)
	}
	baseSecs := time.Since(t0).Seconds()
	baseEPVF := base.EPVF()
	fmt.Printf("gate: baseline ePVF %.6f (%.3fs)\n", baseEPVF, baseSecs)

	per := base.PerInstruction()
	plan := protect.Plan(protect.RankByEPVF(per), per, golden.DynInstrs, *budget)
	var cost int64
	for _, in := range plan {
		cost += protect.CostEstimate(in, per[in].Dynamic)
	}
	fmt.Printf("gate: protecting %d instructions (est overhead %.1f%% of %d dyn instrs, budget %.1f%%)\n",
		len(plan), 100*float64(cost)/float64(golden.DynInstrs), golden.DynInstrs, 100**budget)

	// Apply by static ID to a fresh copy: protect mutates in place, and
	// the baseline module must stay pristine for the comparison.
	m2, err := loadModule(*benchName, *srcPath, *scale)
	if err != nil {
		return err
	}
	if err := protect.ApplyByID(m2, protect.IDsOf(plan)); err != nil {
		return err
	}
	t1 := time.Now()
	prot, _, err := epvf.AnalyzeModule(m2, cfg)
	if err != nil {
		return fmt.Errorf("re-verify analysis: %w", err)
	}
	protSecs := time.Since(t1).Seconds()
	protEPVF := prot.EPVF()
	fmt.Printf("gate: protected ePVF %.6f (%.3fs)\n", protEPVF, protSecs)
	// One machine-parsable total for timing comparisons.
	fmt.Printf("gate: analysis seconds %.3f\n", baseSecs+protSecs)

	if *threshold < 0 {
		fmt.Printf("gate: REPORT ePVF %+.6f vs baseline (set -threshold to gate)\n",
			protEPVF-baseEPVF)
		return nil
	}
	if protEPVF > *threshold+1e-12 {
		fmt.Printf("gate: FAIL ePVF %.6f > threshold %.6f\n", protEPVF, *threshold)
		return fmt.Errorf("gate: ePVF regression: %.6f exceeds threshold %.6f", protEPVF, *threshold)
	}
	fmt.Printf("gate: PASS ePVF %.6f <= threshold %.6f (delta %+.6f vs baseline)\n",
		protEPVF, *threshold, protEPVF-baseEPVF)
	return nil
}
