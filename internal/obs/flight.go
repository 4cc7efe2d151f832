package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/report"
)

// Flight is the always-on flight recorder: a fixed-size ring of the most
// recent completed spans plus bounded per-shard injection exemplars (the
// slowest K injections of each shard, and the first injection of every
// crash class). It exists so a hung or crashed process can explain its
// recent past even when JSONL tracing is off — /debug/flight dumps it
// live, CLIs dump it on abnormal exit.
//
// Recording is one short mutex hold over preallocated storage: no
// allocation per span once the ring is warm, no I/O ever. A nil *Flight
// no-ops on every method, matching the rest of obs.
type Flight struct {
	mu     sync.Mutex
	ring   *Ring[SpanRecord]
	total  uint64 // spans ever recorded
	injs   uint64 // injections ever observed
	shards map[int]*InjectionSet
	order  []int // shard insertion order, for bounded eviction
}

// Flight sizing: the ring holds the last DefaultFlightSpans spans
// (~100KB), exemplars keep the DefaultFlightSlowest slowest injections
// per shard, and at most flightMaxShards shards are tracked (oldest
// evicted first) so a long campaign cannot grow the recorder.
const (
	DefaultFlightSpans   = 512
	DefaultFlightSlowest = 4
	flightMaxShards      = 256
)

// NewFlight returns an empty recorder.
func NewFlight() *Flight {
	return &Flight{
		ring:   NewRing[SpanRecord](DefaultFlightSpans),
		shards: make(map[int]*InjectionSet),
	}
}

// Record adds a completed span to the ring, evicting the oldest once
// full. Nil-safe.
func (f *Flight) Record(rec SpanRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring.Push(rec)
	f.total++
	f.mu.Unlock()
}

// ObserveInjection feeds one completed injection into the per-shard
// exemplar sets. Nil-safe.
func (f *Flight) ObserveInjection(inj Injection) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.injs++
	set := f.shards[inj.Shard]
	if set == nil {
		if len(f.order) >= flightMaxShards {
			delete(f.shards, f.order[0])
			f.order = f.order[1:]
		}
		set = NewInjectionSet()
		f.shards[inj.Shard] = set
		f.order = append(f.order, inj.Shard)
	}
	set.Observe(inj)
	f.mu.Unlock()
}

// FlightView is the serializable snapshot /debug/flight renders.
type FlightView struct {
	SpansTotal      uint64 `json:"spans_total"`
	InjectionsTotal uint64 `json:"injections_total"`
	// RecentSpans are the ring contents, oldest first.
	RecentSpans []SpanRecord     `json:"recent_spans"`
	Shards      []ShardExemplars `json:"shards,omitempty"`
}

// ShardExemplars is one shard's notable injections.
type ShardExemplars struct {
	Shard   int         `json:"shard"`
	Notable []Injection `json:"notable"`
}

// View snapshots the recorder. Nil-safe (zero view).
func (f *Flight) View() FlightView {
	if f == nil {
		return FlightView{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	v := FlightView{SpansTotal: f.total, InjectionsTotal: f.injs}
	if f.ring.Len() > 0 {
		v.RecentSpans = f.ring.Items()
	}
	for _, shard := range f.order {
		v.Shards = append(v.Shards, ShardExemplars{Shard: shard, Notable: f.shards[shard].Notable()})
	}
	sort.Slice(v.Shards, func(i, j int) bool { return v.Shards[i].Shard < v.Shards[j].Shard })
	return v
}

// WriteText renders the recorder as a human-readable dump (the
// ?format=text view of /debug/flight, and the abnormal-exit dump).
func (f *Flight) WriteText(w io.Writer) {
	v := f.View()
	fmt.Fprintf(w, "flight recorder: %d spans recorded (%d retained), %d injections observed\n",
		v.SpansTotal, len(v.RecentSpans), v.InjectionsTotal)
	if len(v.RecentSpans) > 0 {
		tab := report.NewTable("Recent spans (oldest first)", "Proc", "Span", "Trace", "Start", "Wall")
		for _, rec := range v.RecentSpans {
			tab.AddRow(rec.Proc, rec.Name, rec.TraceID,
				rec.Start.Format("15:04:05.000"),
				time.Duration(rec.WallNS).Round(time.Microsecond).String())
		}
		fmt.Fprint(w, tab.String())
	}
	for _, sh := range v.Shards {
		tab := report.NewTable(fmt.Sprintf("Shard %d exemplars", sh.Shard),
			"Index", "Outcome", "Class", "Wall")
		for _, inj := range sh.Notable {
			tab.AddRow(inj.Index, inj.Outcome, inj.Class,
				time.Duration(inj.WallNS).Round(time.Microsecond).String())
		}
		fmt.Fprint(w, tab.String())
	}
}

// Injection is one completed fault injection as the flight recorder sees
// it — a neutral mirror of fi.Record (obs cannot import internal/fi).
type Injection struct {
	Shard   int       `json:"shard"`
	Index   int64     `json:"index"`
	Outcome string    `json:"outcome"`
	Class   string    `json:"class,omitempty"` // crash class, "" otherwise
	Start   time.Time `json:"start"`
	WallNS  int64     `json:"wall_ns"`
}

// InjectionSet collects the notable injections of one shard: the
// DefaultFlightSlowest slowest plus the first of each crash class.
// Bounded by construction — one entry per distinct class — it is both the flight
// recorder's per-shard store and the seam workers/engine use to pick
// which injection spans ship with shard results.
type InjectionSet struct {
	slowest []Injection // descending WallNS
	classes map[string]Injection
	order   []string // class first-seen order
}

// NewInjectionSet returns a set keeping the DefaultFlightSlowest
// slowest injections.
func NewInjectionSet() *InjectionSet {
	return &InjectionSet{classes: make(map[string]Injection)}
}

// Observe feeds one injection.
func (s *InjectionSet) Observe(inj Injection) {
	if s == nil {
		return
	}
	// Insert into the slowest-k list (descending), then truncate.
	i := sort.Search(len(s.slowest), func(i int) bool { return s.slowest[i].WallNS < inj.WallNS })
	if i < DefaultFlightSlowest {
		s.slowest = append(s.slowest, Injection{})
		copy(s.slowest[i+1:], s.slowest[i:])
		s.slowest[i] = inj
		if len(s.slowest) > DefaultFlightSlowest {
			s.slowest = s.slowest[:DefaultFlightSlowest]
		}
	}
	if inj.Class != "" {
		if _, ok := s.classes[inj.Class]; !ok {
			s.classes[inj.Class] = inj
			s.order = append(s.order, inj.Class)
		}
	}
}

// Notable returns the union of slowest-k and per-class exemplars, sorted
// by injection index, deduplicated.
func (s *InjectionSet) Notable() []Injection {
	if s == nil {
		return nil
	}
	seen := make(map[int64]bool, len(s.slowest)+len(s.order))
	out := make([]Injection, 0, len(s.slowest)+len(s.order))
	for _, inj := range s.slowest {
		if !seen[inj.Index] {
			seen[inj.Index] = true
			out = append(out, inj)
		}
	}
	for _, class := range s.order {
		inj := s.classes[class]
		if !seen[inj.Index] {
			seen[inj.Index] = true
			out = append(out, inj)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// defaultFlight mirrors defaultReg/defaultTracer: CLIs install a recorder
// at startup so it is on even when tracing and metrics are off.
var defaultFlight atomic.Pointer[Flight]

// DefaultFlight returns the process-wide flight recorder (nil when none
// installed — every method on the nil recorder no-ops).
func DefaultFlight() *Flight { return defaultFlight.Load() }

// SetDefaultFlight installs the process-wide flight recorder.
func SetDefaultFlight(f *Flight) { defaultFlight.Store(f) }

// DumpDefaultFlight writes the default recorder's text dump — CLIs call
// it on abnormal exit so the last spans before a failure are not lost.
// No-op when no recorder is installed or it recorded nothing: a flag
// error that dies before any work should not print an empty dump.
func DumpDefaultFlight(w io.Writer) {
	f := DefaultFlight()
	if f == nil {
		return
	}
	if v := f.View(); v.SpansTotal == 0 && v.InjectionsTotal == 0 {
		return
	}
	f.WriteText(w)
}
