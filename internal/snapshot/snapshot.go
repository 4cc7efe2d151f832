// Package snapshot maintains chains of copy-on-write execution snapshots
// along a program's golden path, so fault-injection runs can restore the
// nearest snapshot at-or-below their injection event and execute only the
// delta instead of replaying the whole prefix (the FastFlip observation
// applied to our execution layer).
//
// NewChain captures the whole chain in one golden execution on the
// bytecode VM (vm.Program.Checkpoints), one state every stride events.
// Capture cost is O(dirty pages) thanks to mem's page-level COW fork;
// restore cost is an O(frames + page pointers) fork of the frozen state.
//
// Chains are safe for concurrent use without a lock: the snapshot slice
// never changes after NewChain, the States are immutable (vm.Resume forks
// them), and the stats are atomic.
package snapshot

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/vm"
)

// DefaultMaxSnapshots caps a chain's snapshot count; the stride is widened
// when the trace is long enough to exceed it. Bounds memory at roughly
// DefaultMaxSnapshots x live-page-set.
const DefaultMaxSnapshots = 1024

// MinStride is the smallest auto-selected stride: below this, capture
// overhead rivals the replay it saves.
const MinStride = 64

// DirtyPageBuckets is the histogram layout for per-capture dirty pages.
var DirtyPageBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// Config is empty: a chain places its snapshots itself (AutoStride,
// capped at DefaultMaxSnapshots). It stays, like vm.Options, only because
// the benchmark (perfbench/campaign.go) passes snapshot.Config{} to
// fi.Runner.EnableSnapshots; NewChain does not take it.
type Config struct{}

// AutoStride returns the default snapshot spacing for a trace of the given
// length: ~sqrt(T) events, floored at MinStride. With T/stride ~ sqrt(T)
// snapshots the worst-case replay delta and the capture count balance —
// total work per campaign pass is O(T + runs*sqrt(T)) instead of
// O(runs*T).
func AutoStride(totalEvents int64) int64 {
	s := int64(math.Sqrt(float64(totalEvents)))
	if s < MinStride {
		s = MinStride
	}
	return s
}

// Stats aggregates chain activity; all fields are atomic so workers update
// them lock-free.
type Stats struct {
	Captures       atomic.Int64
	Restores       atomic.Int64
	Converged      atomic.Int64
	ReplayedEvents atomic.Int64
	SkippedEvents  atomic.Int64
	DirtyPages     atomic.Int64
}

// View is a point-in-time copy of Stats in the shape shared by
// `campaign status -json` and the /campaign endpoint.
type View struct {
	Enabled        bool  `json:"enabled"`
	Stride         int64 `json:"stride"`
	Captures       int64 `json:"captures"`
	Restores       int64 `json:"restores"`
	Converged      int64 `json:"converged"`
	ReplayedEvents int64 `json:"replayed_events"`
	SkippedEvents  int64 `json:"skipped_events"`
	DirtyPages     int64 `json:"dirty_pages"`
}

// Chain is an immutable, event-sorted sequence of golden-path snapshots.
type Chain struct {
	snaps  []*vm.State
	stride int64
	stats  Stats
}

// NewChain runs p under cfg once and captures its state at event 0 and
// every stride events after. totalEvents is the golden trace length:
// snapshots sit AutoStride(totalEvents) events apart, widened so that at
// most DefaultMaxSnapshots fit. cfg must match the fault-injection run
// configuration exactly (layout, alignment, budget) or resumed runs will
// diverge from scratch runs.
func NewChain(p *vm.Program, cfg interp.Config, totalEvents int64) (*Chain, error) {
	return newChain(p, cfg, chainStride(totalEvents))
}

// chainStride is NewChain's snapshot spacing for a trace of totalEvents.
func chainStride(totalEvents int64) int64 {
	stride := AutoStride(totalEvents)
	if totalEvents/stride >= DefaultMaxSnapshots {
		stride = totalEvents/DefaultMaxSnapshots + 1
	}
	return stride
}

// newChain builds a chain that captures every stride events.
func newChain(p *vm.Program, cfg interp.Config, stride int64) (*Chain, error) {
	snaps, err := p.Checkpoints(cfg, stride)
	if err != nil {
		return nil, err
	}
	c := &Chain{snaps: snaps, stride: stride}
	c.stats.Captures.Store(int64(len(snaps)))
	for _, st := range snaps {
		c.stats.DirtyPages.Add(st.DirtyPages())
	}
	if r := obs.Default(); r != nil {
		r.Counter("epvf_snapshot_captures_total").Add(int64(len(snaps)))
		h := r.Histogram("epvf_snapshot_dirty_pages", DirtyPageBuckets)
		for _, st := range snaps {
			h.Observe(float64(st.DirtyPages()))
		}
	}
	return c, nil
}

// Stride returns the effective snapshot spacing.
func (c *Chain) Stride() int64 { return c.stride }

// Nearest returns the latest snapshot at-or-below event. The event-0
// snapshot guarantees a hit.
func (c *Chain) Nearest(event int64) *vm.State {
	i := sort.Search(len(c.snaps), func(i int) bool { return c.snaps[i].Event() > event })
	return c.snaps[i-1]
}

// Checkpoints returns the chain's snapshots in event order, the
// checkpoint list of vm.Convergence. Callers must not modify it.
func (c *Chain) Checkpoints() []*vm.State { return c.snaps }

// NoteRestore records one resumed run's accounting: events actually
// executed versus skipped (restored prefix plus any converged tail).
func (c *Chain) NoteRestore(res *interp.Result) {
	c.stats.Restores.Add(1)
	c.stats.ReplayedEvents.Add(res.Executed)
	c.stats.SkippedEvents.Add(res.DynInstrs - res.Executed)
	if res.Converged {
		c.stats.Converged.Add(1)
	}
	if r := obs.Default(); r != nil {
		r.Counter("epvf_snapshot_restores_total").Inc()
		r.Counter("epvf_snapshot_replayed_events_total").Add(res.Executed)
		r.Counter("epvf_snapshot_skipped_events_total").Add(res.DynInstrs - res.Executed)
		if res.Converged {
			r.Counter("epvf_snapshot_converged_total").Inc()
		}
	}
}

// View snapshots the chain's stats.
func (c *Chain) View() View {
	return View{
		Enabled:        true,
		Stride:         c.stride,
		Captures:       c.stats.Captures.Load(),
		Restores:       c.stats.Restores.Load(),
		Converged:      c.stats.Converged.Load(),
		ReplayedEvents: c.stats.ReplayedEvents.Load(),
		SkippedEvents:  c.stats.SkippedEvents.Load(),
		DirtyPages:     c.stats.DirtyPages.Load(),
	}
}
