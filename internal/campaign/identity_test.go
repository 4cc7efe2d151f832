package campaign_test

import (
	"context"
	"fmt"
	"testing"

	epvf "repro"
	"repro/internal/campaign"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mem"
)

// TestRunMatchesRunRange is the campaign identity test: campaign.Run in
// memory on 1 and 4 workers, and the public epvf.Campaign, return exactly
// the records and tallies of a scratch fi.Runner executing the same plan
// one run at a time — at jitter 0 (where Run restores snapshots), under
// 64 pages of layout jitter, and with two-bit faults.
func TestRunMatchesRunRange(t *testing.T) {
	m, err := lang.Compile("t", `
void main() {
  long *a = malloc(40 * 8);
  int i;
  for (i = 0; i < 40; i = i + 1) { a[i] = i * 5; }
  long s = 0;
  for (i = 0; i < 40; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, icfg := range []fi.Config{
		{Seed: 41},
		{Seed: 41, JitterWindow: 64 * mem.PageSize},
		{Seed: 41, FaultBits: 2},
	} {
		cfg := campaign.PlanConfig{Benchmark: "kernel", Runs: 80, ShardSize: 32, FI: icfg}
		plan, err := campaign.NewPlan(m, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := fi.NewRunner(m, g, plan.FIConfig())
		if err != nil {
			t.Fatal(err)
		}
		want := r.RunRange(0, plan.Runs, 1)
		counts := make(map[fi.Outcome]int)
		crashTypes := make(map[interp.ExcKind]int)
		for _, rec := range want {
			counts[rec.Outcome]++
			if rec.Outcome == fi.OutcomeCrash {
				crashTypes[rec.Exc]++
			}
		}
		check := func(via string, res *campaign.Result) {
			t.Helper()
			if !res.Complete || len(res.Records) != len(want) {
				t.Fatalf("%+v, %s: complete=%v with %d records, want %d", icfg, via, res.Complete, len(res.Records), len(want))
			}
			for i := range want {
				if res.Records[i] != want[i] {
					t.Fatalf("%+v, %s: record %d = %+v, RunRange %+v", icfg, via, i, res.Records[i], want[i])
				}
			}
			if fmt.Sprint(res.Counts) != fmt.Sprint(counts) || fmt.Sprint(res.CrashTypes) != fmt.Sprint(crashTypes) {
				t.Fatalf("%+v, %s: counts %v %v, RunRange %v %v", icfg, via, res.Counts, res.CrashTypes, counts, crashTypes)
			}
		}
		for _, workers := range []int{1, 4} {
			res, err := campaign.Run(context.Background(), m, g, plan, campaign.RunOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("campaign.Run on %d workers", workers), res)
		}
		res, err := epvf.Campaign(m, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.ID != plan.ID {
			t.Fatalf("%+v: epvf.Campaign planned %s, want %s", icfg, res.Plan.ID, plan.ID)
		}
		check("epvf.Campaign", res)
	}
}
