//go:build !race

// The runners below execute on one goroutine, so -race finds nothing in
// them and only multiplies the walker runs' cost; the vm differential step
// of make check runs them in a normal build.

package fi

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/snapshot"
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
