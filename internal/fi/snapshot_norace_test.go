//go:build !race

// The runners below execute on one goroutine, so -race finds nothing in
// them and only multiplies the walker runs' cost; the vm differential step
// of make check runs them in a normal build.

package fi

import (
	"cmp"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// TestSnapshotRunnerMatchesWalkerScratch is the end-to-end check that
// VM-captured snapshots change nothing: on every kernel and on 20 random
// programs, runs 0-15 of a runner restoring snapshots return exactly the
// records of a walker runner executing each run from scratch.
func TestSnapshotRunnerMatchesWalkerScratch(t *testing.T) {
	const runs = 16
	mods := map[string]*ir.Module{}
	for _, b := range bench.All() {
		mods[b.Name] = b.MustModule(1)
	}
	for seed := range 20 {
		name := fmt.Sprintf("random%d", seed)
		m, err := lang.Compile(name, bench.RandomProgram(rand.New(rand.NewSource(int64(seed)))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mods[name] = m
	}
	for name, m := range mods {
		g, err := interp.Run(m, interp.Config{Record: true})
		if err != nil {
			t.Fatalf("%s: golden: %v", name, err)
		}
		cfg := Config{Seed: 2016}
		snap, err := NewRunner(m, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok, err := snap.EnableSnapshots(snapshot.Config{}); err != nil || !ok {
			t.Fatalf("%s: EnableSnapshots = %v, %v", name, ok, err)
		}
		cfg.Engine = EngineWalker
		scratch, err := NewRunner(m, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, want := snap.RunRange(0, runs, 1), scratch.RunRange(0, runs, 1)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s run %d: snapshot runner %+v, walker scratch %+v", name, i, got[i], want[i])
			}
		}
		if v := snap.SnapshotView(); v.Restores != runs {
			t.Errorf("%s: %d restores, want %d", name, v.Restores, runs)
		}
	}
}

// TestConvergedResumeMatchesScratch checks the convergence fast path run
// by run: every run of mm, bfs and lulesh campaigns, of 20 random program
// campaigns and of a loop whose bound lives in memory (so some runs
// hang), resumed from its snapshot with convergence, returns the record,
// outputs, exception, hang flag and event count of its from-scratch VM
// run. Executed counts the events the resumed run retired itself: up to
// the checkpoint it converged at, else to its end, hung and crashed runs
// included.
func TestConvergedResumeMatchesScratch(t *testing.T) {
	type campaign struct {
		m    *ir.Module
		runs int64
		cfg  Config
	}
	camps := map[string]campaign{}
	for _, name := range []string{"mm", "bfs", "lulesh"} {
		b, _ := bench.Get(name)
		camps[name] = campaign{b.MustModule(1), 256, Config{Seed: 2016}}
	}
	for seed := range 20 {
		name := fmt.Sprintf("random%d", seed)
		m, err := lang.Compile(name, bench.RandomProgram(rand.New(rand.NewSource(int64(seed)))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		camps[name] = campaign{m, 32, Config{Seed: 2016}}
	}
	loop, err := lang.Compile("loopbound", `
void main() {
  int i = 0;
  int n = 1000;
  int s = 0;
  while (i < n) { s = s + i; i = i + 1; }
  output(s);
}`)
	if err != nil {
		t.Fatal(err)
	}
	camps["loopbound"] = campaign{loop, 256, Config{Seed: 12, HangFactor: 3}}
	var converged, hung, crashed, other int
	for name, c := range camps {
		g, err := interp.Run(c.m, interp.Config{Record: true})
		if err != nil {
			t.Fatalf("%s: golden: %v", name, err)
		}
		r, err := NewRunner(c.m, g, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok, err := r.EnableSnapshots(snapshot.Config{}); err != nil || !ok {
			t.Fatalf("%s: EnableSnapshots = %v, %v", name, ok, err)
		}
		for i := range c.runs {
			tgt, layout := r.Draw(i)
			inj := func() *interp.Injection {
				return &interp.Injection{Event: tgt.Event, Bit: tgt.Bit, Mask: tgt.Mask}
			}
			want, err := r.prog.Run(interp.Config{
				Layout:       layout,
				MaxDynInstrs: int64(cmp.Or(c.cfg.HangFactor, 10) * float64(g.DynInstrs)),
				Injection:    inj(),
			})
			if err != nil {
				t.Fatalf("%s run %d: scratch: %v", name, i, err)
			}
			st, cps := r.chain.Nearest(tgt.Event), r.chain.Checkpoints()
			got, err := vm.Resume(st, vm.ResumeOptions{
				Injection:   inj(),
				Convergence: &vm.Convergence{Golden: g, Checkpoints: cps},
			})
			if err != nil {
				t.Fatalf("%s run %d: resume: %v", name, i, err)
			}
			if gr, wr := classify(g, got, tgt), classify(g, want, tgt); gr != wr {
				t.Errorf("%s run %d: resumed record %+v, scratch %+v", name, i, gr, wr)
			}
			if got.DynInstrs != want.DynInstrs || got.Hang != want.Hang ||
				fmt.Sprint(got.Exception) != fmt.Sprint(want.Exception) ||
				fmt.Sprint(got.Outputs) != fmt.Sprint(want.Outputs) {
				t.Errorf("%s run %d: resumed %d events, hang %v, exception %v, %d outputs; scratch %d, %v, %v, %d",
					name, i, got.DynInstrs, got.Hang, got.Exception, len(got.Outputs),
					want.DynInstrs, want.Hang, want.Exception, len(want.Outputs))
			}
			if want.Executed != want.DynInstrs {
				t.Errorf("%s run %d: scratch executed %d of %d events", name, i, want.Executed, want.DynInstrs)
			}
			end := got.DynInstrs
			switch {
			case got.Converged:
				converged++
				// The run stopped on the checkpoint it converged at, which
				// lies past its fault: without that checkpoint and the ones
				// after it, the same run must not converge at all.
				end = st.Event() + got.Executed
				k := sort.Search(len(cps), func(k int) bool { return cps[k].Event() >= end })
				if end <= tgt.Event || k == len(cps) || cps[k].Event() != end {
					t.Errorf("%s run %d: resumed at %d, converged at %d, not a checkpoint past the fault at %d",
						name, i, st.Event(), end, tgt.Event)
					continue
				}
				early, err := vm.Resume(st, vm.ResumeOptions{
					Injection:   inj(),
					Convergence: &vm.Convergence{Golden: g, Checkpoints: cps[:k]},
				})
				if err != nil || early.Converged {
					t.Errorf("%s run %d: converged before checkpoint %d at event %d (err %v)", name, i, k, end, err)
				}
				continue
			case got.Hang:
				hung++
			case got.Exception != nil:
				crashed++
			default:
				other++
			}
			if got.Executed != end-st.Event() {
				t.Errorf("%s run %d: resumed at %d, executed %d, want %d",
					name, i, st.Event(), got.Executed, end-st.Event())
			}
		}
	}
	t.Logf("%d converged, %d hung, %d crashed, %d ran to the end", converged, hung, crashed, other)
	if converged == 0 || hung == 0 || crashed == 0 || other == 0 {
		t.Errorf("the campaigns must cover every kind of run")
	}
}
