package protect

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
)

// runCampaign plans and runs an in-memory campaign of runs injections.
func runCampaign(t *testing.T, m *ir.Module, golden *interp.Result, runs int, cfg fi.Config) *campaign.Result {
	t.Helper()
	plan, err := campaign.NewPlan(m, golden, campaign.PlanConfig{Runs: runs, FI: cfg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(context.Background(), m, golden, plan, campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const kernelSrc = `
void main() {
  long *a = malloc(32 * 8);
  int i;
  for (i = 0; i < 32; i = i + 1) { a[i] = i * 7; }
  long s = 0;
  for (i = 0; i < 32; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}
`

func analyzed(t *testing.T, src string) (*ir.Module, *epvf.Analysis, *interp.Result) {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a, g, err := epvf.AnalyzeModule(m, epvf.Config{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return m, a, g
}

func TestEligible(t *testing.T) {
	add := &ir.Instr{Op: ir.OpAdd, Ty: ir.I32}
	if !Eligible(add) {
		t.Error("add must be eligible")
	}
	for _, op := range []ir.Opcode{ir.OpAlloca, ir.OpCall, ir.OpMalloc, ir.OpPhi, ir.OpStore, ir.OpBr} {
		if Eligible(&ir.Instr{Op: op}) {
			t.Errorf("%s must not be eligible", op)
		}
	}
	if !Eligible(&ir.Instr{Op: ir.OpLoad, Ty: ir.I32}) {
		t.Error("load must be eligible")
	}
}

func TestRankingsOrdered(t *testing.T) {
	_, a, _ := analyzed(t, kernelSrc)
	per := a.PerInstruction()
	byE := RankByEPVF(per)
	byF := RankByFrequency(per)
	if len(byE) == 0 || len(byE) != len(byF) {
		t.Fatalf("ranking sizes: %d vs %d", len(byE), len(byF))
	}
	for i := 1; i < len(byE); i++ {
		if per[byE[i-1]].EPVF() < per[byE[i]].EPVF() {
			t.Fatal("ePVF ranking not descending")
		}
		if per[byF[i-1]].Dynamic < per[byF[i]].Dynamic {
			t.Fatal("frequency ranking not descending")
		}
	}
	for _, in := range byE {
		if !Eligible(in) {
			t.Fatalf("ineligible %s in ranking", in.Op)
		}
	}
}

func TestPlanRespectsBudget(t *testing.T) {
	_, a, g := analyzed(t, kernelSrc)
	per := a.PerInstruction()
	ranking := RankByEPVF(per)
	sel := Plan(ranking, per, g.DynInstrs, 0.24)
	if len(sel) == 0 {
		t.Fatal("empty plan at 24% budget")
	}
	var cost int64
	for _, in := range sel {
		cost += CostEstimate(in, per[in].Dynamic)
	}
	if float64(cost) > 0.24*float64(g.DynInstrs) {
		t.Errorf("plan cost %d exceeds budget of %d", cost, int64(0.24*float64(g.DynInstrs)))
	}
	// A larger budget must select at least as many instructions.
	selBig := Plan(ranking, per, g.DynInstrs, 0.5)
	if len(selBig) < len(sel) {
		t.Error("larger budget selected fewer instructions")
	}
}

func TestApplyPreservesGoldenBehaviour(t *testing.T) {
	m, a, g := analyzed(t, kernelSrc)
	per := a.PerInstruction()
	sel := Plan(RankByEPVF(per), per, g.DynInstrs, 0.24)
	if err := Apply(m, sel); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	res, err := interp.Run(m, interp.Config{})
	if err != nil {
		t.Fatalf("protected run: %v", err)
	}
	if res.Exception != nil {
		t.Fatalf("protected golden run raised %v (false detection?)", res.Exception)
	}
	if len(res.Outputs) != len(g.Outputs) {
		t.Fatalf("output count changed: %d vs %d", len(res.Outputs), len(g.Outputs))
	}
	for i := range res.Outputs {
		if res.Outputs[i].Bits != g.Outputs[i].Bits {
			t.Fatal("protected program changed its output")
		}
	}
	overhead := float64(res.DynInstrs-g.DynInstrs) / float64(g.DynInstrs)
	if overhead <= 0 {
		t.Error("protection added no dynamic instructions")
	}
	if overhead > 0.30 {
		t.Errorf("measured overhead %.3f far above the 24%% estimate", overhead)
	}
	t.Logf("protected %d instructions, overhead %.3f", len(sel), overhead)
}

func TestProtectionDetectsInjectedFaults(t *testing.T) {
	m, a, g := analyzed(t, kernelSrc)
	per := a.PerInstruction()
	sel := Plan(RankByEPVF(per), per, g.DynInstrs, 0.24)
	if err := Apply(m, sel); err != nil {
		t.Fatal(err)
	}
	// Re-record the protected golden run, then inject into shadow-covered
	// defs: some runs must end in Detected.
	gp, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	res := runCampaign(t, m, gp, 400, fi.Config{Seed: 21})
	if res.Counts[fi.OutcomeDetected] == 0 {
		t.Error("no faults detected by the duplication checks in 400 injections")
	}
}

func TestProtectionReducesSDCRate(t *testing.T) {
	// The core §V claim on one benchmark: at a fixed overhead budget,
	// ePVF-guided duplication lowers the SDC rate vs no protection.
	b, _ := bench.Get("mm")
	base := b.MustModule(1)
	a, g, err := epvf.AnalyzeModule(base, epvf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	baseFI := runCampaign(t, base, g, 500, fi.Config{Seed: 31})
	per := a.PerInstruction()
	sel := Plan(RankByEPVF(per), per, g.DynInstrs, 0.24)
	prot := b.MustModule(1)
	if err := ApplyByID(prot, IDsOf(sel)); err != nil {
		t.Fatal(err)
	}
	gp, err := interp.Run(prot, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if gp.Exception != nil {
		t.Fatalf("protected golden run failed: %v", gp.Exception)
	}
	protFI := runCampaign(t, prot, gp, 500, fi.Config{Seed: 31})
	baseSDC := baseFI.Rate(fi.OutcomeSDC)
	protSDC := protFI.Rate(fi.OutcomeSDC)
	t.Logf("SDC rate: baseline %.3f -> protected %.3f (detected %.3f)",
		baseSDC, protSDC, protFI.Rate(fi.OutcomeDetected))
	if protSDC >= baseSDC {
		t.Errorf("ePVF-guided protection did not reduce the SDC rate: %.3f -> %.3f",
			baseSDC, protSDC)
	}
}

func TestApplyByIDRejectsUnknown(t *testing.T) {
	m, _, _ := analyzed(t, kernelSrc)
	if err := ApplyByID(m, []int{1 << 20}); err == nil {
		t.Error("ApplyByID accepted a bogus ID")
	}
}

func TestApplyRejectsForeignInstr(t *testing.T) {
	m1, a, g := analyzed(t, kernelSrc)
	_ = m1
	per := a.PerInstruction()
	sel := Plan(RankByEPVF(per), per, g.DynInstrs, 0.1)
	if len(sel) == 0 {
		t.Skip("no selection")
	}
	m2, err := lang.Compile("other", kernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(m2, sel[:1]); err == nil {
		t.Error("Apply accepted an instruction from a different module")
	}
}

func TestProtectAnchorInLoopWithPhis(t *testing.T) {
	// Splitting a loop block must rewrite successor phis; build a module
	// with explicit phis and protect an instruction in the loop body.
	b := ir.NewBuilder("phi")
	b.NewFunc("main", ir.Void)
	entry := b.CurBlock()
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	i := b.Phi(ir.I32)
	acc := b.Phi(ir.I32)
	cond := b.ICmp(ir.ISLT, i, ir.ConstInt(ir.I32, 10))
	b.CondBr(cond, body, exit)
	b.SetBlock(body)
	doubled := b.Mul(i, ir.ConstInt(ir.I32, 2))
	accNext := b.Add(acc, doubled)
	iNext := b.Add(i, ir.ConstInt(ir.I32, 1))
	b.Br(header)
	b.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	b.AddIncoming(i, iNext, body)
	b.AddIncoming(acc, ir.ConstInt(ir.I32, 0), entry)
	b.AddIncoming(acc, accNext, body)
	b.SetBlock(exit)
	b.Output(acc)
	b.Ret(nil)
	m := b.MustModule()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	golden, err := interp.Run(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}

	if err := Apply(m, []*ir.Instr{doubled}); err != nil {
		t.Fatalf("Apply on loop body with phis: %v", err)
	}
	res, err := interp.Run(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exception != nil {
		t.Fatalf("protected phi-loop run raised %v", res.Exception)
	}
	if res.Outputs[0].Bits != golden.Outputs[0].Bits {
		t.Errorf("output changed: %d vs %d", res.Outputs[0].Bits, golden.Outputs[0].Bits)
	}
}

func TestProtectFloatUsesBitComparison(t *testing.T) {
	src := `
void main() {
  double *v = malloc(16 * 8);
  int i;
  for (i = 0; i < 16; i = i + 1) { v[i] = (double)i * 1.5; }
  double s = 0.0;
  for (i = 0; i < 16; i = i + 1) { s = s + v[i]; }
  output(s);
  free(v);
}`
	m, a, g := analyzed(t, src)
	per := a.PerInstruction()
	sel := Plan(RankByEPVF(per), per, g.DynInstrs, 0.24)
	if err := Apply(m, sel); err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exception != nil {
		t.Fatalf("float-protected run raised %v", res.Exception)
	}
	if res.Outputs[0].Bits != g.Outputs[0].Bits {
		t.Error("float protection changed the output")
	}
}

func TestRankByEPVFDensityPrefersCheapCoverage(t *testing.T) {
	_, a, g := analyzed(t, kernelSrc)
	per := a.PerInstruction()
	dens := RankByEPVFDensity(per)
	if len(dens) == 0 {
		t.Fatal("empty density ranking")
	}
	// Density must be non-increasing down the ranking.
	density := func(in *ir.Instr) float64 {
		v := per[in]
		return float64(v.ACEBits-v.CrashBits) / float64(CostEstimate(in, v.Dynamic))
	}
	for i := 1; i < len(dens); i++ {
		if density(dens[i-1]) < density(dens[i])-1e-12 {
			t.Fatal("density ranking not descending")
		}
	}
	// A density plan covers at least as many instructions as the plain
	// ePVF plan under the same budget (cheaper anchors pack better).
	plain := Plan(RankByEPVF(per), per, g.DynInstrs, 0.24)
	packed := Plan(dens, per, g.DynInstrs, 0.24)
	if len(packed) < len(plain) {
		t.Errorf("density plan (%d) smaller than plain ePVF plan (%d)", len(packed), len(plain))
	}
}

func TestCostEstimateCountsCompareConversions(t *testing.T) {
	m, _, _ := analyzed(t, `
void main() {
  double *v = malloc(8 * 8);
  int i;
  for (i = 0; i < 8; i = i + 1) { v[i] = (double)i; }
  output(v[3]);
  free(v);
}`)
	var fAnchor, iAnchor *ir.Instr
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpSIToFP && fAnchor == nil {
					fAnchor = in
				}
				if in.Op == ir.OpAdd && in.Ty.Equal(ir.I32) && iAnchor == nil {
					iAnchor = in
				}
			}
		}
	}
	if fAnchor == nil || iAnchor == nil {
		t.Fatal("anchors not found")
	}
	// A float anchor with the same chain length costs 2 more dynamic
	// instructions per instance (the bitcasts feeding the compare).
	fCost := CostEstimate(fAnchor, 1)
	fChain := fCost - 4
	iCost := CostEstimate(iAnchor, 1)
	iChain := iCost - 2
	if fChain <= 0 || iChain <= 0 {
		t.Errorf("cost model inconsistent: float %d, int %d", fCost, iCost)
	}
}
