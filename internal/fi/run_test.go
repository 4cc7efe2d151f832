package fi

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/snapshot"
)

// indices returns 0..n-1.
func indices(n int) []int64 {
	idxs := make([]int64, n)
	for i := range idxs {
		idxs[i] = int64(i)
	}
	return idxs
}

// executed is the number of runs the runner's engines have executed.
func executed(r *Runner) int64 {
	var n int64
	for _, s := range r.EngineStats() {
		n += s.Runs
	}
	return n
}

// reporter is a done callback that records every report in plain maps
// (so the race detector flags any concurrent call) and fails the test on
// a duplicate index or an overlapping call.
type reporter struct {
	t       *testing.T
	busy    bool
	records map[int64]Record
	calls   int
}

func newReporter(t *testing.T) *reporter {
	return &reporter{t: t, records: make(map[int64]Record)}
}

func (p *reporter) done(i int64, rec Record, start time.Time, wall time.Duration) error {
	if p.busy {
		p.t.Errorf("done called concurrently (index %d)", i)
	}
	p.busy = true
	defer func() { p.busy = false }()
	p.calls++
	if _, dup := p.records[i]; dup {
		p.t.Errorf("index %d reported twice", i)
	}
	if start.IsZero() || wall < 0 {
		p.t.Errorf("index %d: start %v, wall %v", i, start, wall)
	}
	p.records[i] = rec
	return nil
}

// TestRunContract pins fi.(*Runner).Run: records are identical for any
// worker count and to RunIndex one run at a time, and done sees every
// index exactly once, never concurrently. It covers a scratch runner
// under layout jitter and a snapshot runner (which reorders by event).
func TestRunContract(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	const runs = 60
	for name, cfg := range map[string]Config{
		"scratch":  {Seed: 23, JitterWindow: 64 * mem.PageSize},
		"snapshot": {Seed: 23},
	} {
		t.Run(name, func(t *testing.T) {
			newRunner := func() *Runner {
				r, err := NewRunner(m, g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.EnableSnapshots(snapshot.Config{}); err != nil {
					t.Fatal(err)
				}
				return r
			}
			ref := newRunner()
			want := make([]Record, runs)
			for i := range want {
				want[i] = ref.RunIndex(int64(i))
			}
			for _, workers := range []int{1, 2, 8} {
				r := newRunner()
				p := newReporter(t)
				if err := r.Run(context.Background(), indices(runs), workers, p.done); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if p.calls != runs || len(p.records) != runs {
					t.Fatalf("workers=%d: %d reports of %d indices, want %d", workers, p.calls, len(p.records), runs)
				}
				for i, w := range want {
					if got := p.records[int64(i)]; got != w {
						t.Fatalf("workers=%d: record %d = %+v, RunIndex gives %+v", workers, i, got, w)
					}
				}
				if n := executed(r); n != runs {
					t.Errorf("workers=%d: engines executed %d runs, want %d", workers, n, runs)
				}
			}
		})
	}
}

// TestRunCancelDrains checks that a cancelled ctx stops issuing runs and
// that every run already issued still reaches done.
func TestRunCancelDrains(t *testing.T) {
	g := golden(t, kernelSrc)
	const runs, workers, cancelAfter = 80, 2, 5
	r, err := NewRunner(g.Trace.Module, g, Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := newReporter(t)
	err = r.Run(ctx, indices(runs), workers, func(i int64, rec Record, start time.Time, wall time.Duration) error {
		if p.calls+1 == cancelAfter {
			cancel()
		}
		return p.done(i, rec, start, wall)
	})
	if err != nil {
		t.Fatalf("cancelled Run returned %v, want nil", err)
	}
	n := executed(r)
	if int64(p.calls) != n {
		t.Errorf("%d runs issued but %d reported", n, p.calls)
	}
	// At the cancel, each worker holds at most one run and the result
	// buffer at most one per worker.
	if p.calls < cancelAfter || p.calls > cancelAfter+2*workers {
		t.Errorf("%d runs reported after cancelling at %d with %d workers", p.calls, cancelAfter, workers)
	}

	// A ctx cancelled up front issues nothing.
	r2, err := NewRunner(g.Trace.Module, g, Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	p2 := newReporter(t)
	if err := r2.Run(ctx, indices(runs), workers, p2.done); err != nil {
		t.Fatal(err)
	}
	if p2.calls != 0 || executed(r2) != 0 {
		t.Errorf("pre-cancelled ctx: %d reported, %d executed, want 0", p2.calls, executed(r2))
	}
}

// TestRunDoneErrorStops checks that the first error from done is
// returned and stops issuing runs.
func TestRunDoneErrorStops(t *testing.T) {
	g := golden(t, kernelSrc)
	const runs, workers, failAt = 80, 2, 4
	r, err := NewRunner(g.Trace.Module, g, Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("log full")
	p := newReporter(t)
	err = r.Run(context.Background(), indices(runs), workers, func(i int64, rec Record, start time.Time, wall time.Duration) error {
		if err := p.done(i, rec, start, wall); err != nil {
			return err
		}
		if p.calls == failAt {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want %v", err, boom)
	}
	if p.calls != failAt {
		t.Errorf("done called %d times, want %d (no reports after the error)", p.calls, failAt)
	}
	if n := executed(r); n > failAt+2*workers {
		t.Errorf("%d runs issued after done failed at %d with %d workers", n, failAt, workers)
	}
}
