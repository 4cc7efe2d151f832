// Package ts is the bounded in-process time-series layer over the obs
// metrics registry: a Collector records every registered series of the
// snapshot it is handed each Stride into fixed-capacity rings (raw
// values plus rate-of-change for counters and histogram counts),
// downsampled into three resolutions (1s / 10s / 60s), and fans the
// per-tick deltas out to Server-Sent-Events subscribers through a Hub
// whose per-client queues are bounded — a slow dashboard drops events
// and is counted, it never blocks the sampling tick or any hot path.
//
// Everything follows the obs discipline: a nil *Collector and a nil *Hub
// no-op on every method, so instrumented call sites pay one predictable
// nil check when the live-telemetry layer is disabled.
package ts

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Point is one sample: T is unix milliseconds, V the value.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// resMults are the downsampling factors of the three resolutions, in
// ticks of the base stride: every tick, every 10th, every 60th.
var resMults = [3]int{1, 10, 60}

// accum aggregates base-resolution samples into one coarser point: mean
// for gauges and rates, last value for monotone counters.
type accum struct {
	n       int
	sum     float64
	sumRate float64
	last    float64
	rated   bool
}

// series is the time-series state of one registry series.
type series struct {
	name   string
	labels map[string]string
	kind   string

	have  bool
	last  float64
	lastT time.Time

	raw  [3]*obs.Ring[Point]
	rate [3]*obs.Ring[Point] // counters and histogram counts only
	acc  [3]accum            // index 0 unused
}

// Collector sizing: the sampler ticks every Stride, each ring holds
// Capacity points per resolution per series (4 minutes at base
// resolution, 4 hours at 60s), and at most MaxSeries registry series
// are tracked; later series are dropped and counted.
const (
	Stride    = time.Second
	Capacity  = 240
	MaxSeries = 4096
)

// Collector records registry snapshots into bounded rings. Create with
// New; a nil *Collector no-ops on every method.
type Collector struct {
	hub *Hub

	mu      sync.Mutex
	series  map[string]*series
	order   []string
	ticks   uint64
	dropped int64
}

// New returns an empty collector. When hub is non-nil it receives one
// "metrics" event per Sample carrying the series whose values changed.
func New(hub *Hub) *Collector {
	return &Collector{hub: hub, series: make(map[string]*series)}
}

// seriesDelta is one changed series in a per-tick "metrics" SSE event.
type seriesDelta struct {
	// K is the series key (name plus rendered labels), V the raw value,
	// R the per-second rate of change (counters and histogram counts).
	K string   `json:"k"`
	V float64  `json:"v"`
	R *float64 `json:"r,omitempty"`
}

// Sample records one registry snapshot taken at now. Nil-safe: the
// disabled path is one branch.
func (c *Collector) Sample(snap *obs.Snapshot, now time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	var deltas []seriesDelta
	for i := range snap.Samples {
		smp := &snap.Samples[i]
		key := sampleKey(smp)
		s := c.series[key]
		if s == nil {
			if len(c.series) >= MaxSeries {
				c.dropped++
				continue
			}
			s = &series{name: smp.Name, labels: smp.Labels, kind: smp.Kind}
			for lvl := range resMults {
				s.raw[lvl] = obs.NewRing[Point](Capacity)
				if counterLike(smp.Kind) {
					s.rate[lvl] = obs.NewRing[Point](Capacity)
				}
			}
			c.series[key] = s
			c.order = append(c.order, key)
		}
		v := smp.Value
		if smp.Kind == "histogram" {
			v = float64(smp.Count)
		}
		var ratePtr *float64
		rate := 0.0
		rated := false
		if counterLike(smp.Kind) && s.have {
			if dt := now.Sub(s.lastT).Seconds(); dt > 0 {
				rate = (v - s.last) / dt
				if rate < 0 { // counter reset (Registry.Reset / rebind)
					rate = 0
				}
				rated = true
				ratePtr = &rate
			}
		}
		changed := !s.have || v != s.last
		p := Point{T: now.UnixMilli(), V: v}
		s.raw[0].Push(p)
		if s.rate[0] != nil && rated {
			s.rate[0].Push(Point{T: p.T, V: rate})
		}
		// Fold into the coarser resolutions, emitting one aggregated
		// point whenever a full stride of the level elapses.
		for lvl := 1; lvl < len(resMults); lvl++ {
			a := &s.acc[lvl]
			a.n++
			a.sum += v
			a.last = v
			if rated {
				a.sumRate += rate
				a.rated = true
			}
			if a.n >= resMults[lvl] {
				agg := a.sum / float64(a.n)
				if counterLike(smp.Kind) {
					agg = a.last
				}
				s.raw[lvl].Push(Point{T: p.T, V: agg})
				if s.rate[lvl] != nil && a.rated {
					s.rate[lvl].Push(Point{T: p.T, V: a.sumRate / float64(a.n)})
				}
				*a = accum{}
			}
		}
		s.have, s.last, s.lastT = true, v, now
		if changed {
			deltas = append(deltas, seriesDelta{K: key, V: v, R: ratePtr})
		}
	}
	c.ticks++
	c.mu.Unlock()
	if len(deltas) > 0 {
		c.hub.PublishJSON(EventMetrics, deltas)
	}
}

// counterLike reports whether a series kind accumulates monotonically
// (and so has a meaningful rate of change).
func counterLike(kind string) bool { return kind == "counter" || kind == "histogram" }

// sampleKey renders the stable series key: name plus sorted k="v" labels
// (the same shape the registry uses internally).
func sampleKey(smp *obs.Sample) string {
	if len(smp.Labels) == 0 {
		return smp.Name
	}
	keys := make([]string, 0, len(smp.Labels))
	for k := range smp.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(smp.Name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, smp.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// SeriesJSON is one series in the /ts document.
type SeriesJSON struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Points []Point           `json:"points"`
	// Rate carries the per-second rate-of-change points (counters and
	// histogram counts only).
	Rate []Point `json:"rate,omitempty"`
}

// JSONDoc is the /ts response document.
type JSONDoc struct {
	StrideSeconds float64      `json:"stride_seconds"`
	Res           string       `json:"res"`
	Series        []SeriesJSON `json:"series"`
}

// resLevel maps a requested resolution to a downsampling level: the
// level whose effective stride is nearest the request.
func resLevel(req string) (int, string) {
	d, err := time.ParseDuration(req)
	if req == "" || err != nil || d <= 0 {
		return 0, resName(0)
	}
	best, bestDiff := 0, time.Duration(1<<62)
	for lvl, mult := range resMults {
		eff := Stride * time.Duration(mult)
		diff := eff - d
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = lvl, diff
		}
	}
	return best, resName(best)
}

func resName(lvl int) string {
	return (Stride * time.Duration(resMults[lvl])).String()
}

// JSON renders the collector state at the requested resolution ("1s",
// "10s", "60s"/"1m"; empty means base), keeping only series whose key
// starts with prefix (empty keeps all). Nil-safe (empty document).
func (c *Collector) JSON(res, prefix string) JSONDoc {
	if c == nil {
		return JSONDoc{}
	}
	lvl, name := resLevel(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	doc := JSONDoc{StrideSeconds: Stride.Seconds(), Res: name}
	for _, key := range c.order {
		if prefix != "" && !strings.HasPrefix(key, prefix) {
			continue
		}
		s := c.series[key]
		sj := SeriesJSON{Name: s.name, Labels: s.labels, Kind: s.kind, Points: s.raw[lvl].Items()}
		if s.rate[lvl] != nil {
			sj.Rate = s.rate[lvl].Items()
		}
		doc.Series = append(doc.Series, sj)
	}
	sort.Slice(doc.Series, func(i, j int) bool {
		if doc.Series[i].Name != doc.Series[j].Name {
			return doc.Series[i].Name < doc.Series[j].Name
		}
		return sampleKeyOf(&doc.Series[i]) < sampleKeyOf(&doc.Series[j])
	})
	return doc
}

func sampleKeyOf(sj *SeriesJSON) string {
	return sampleKey(&obs.Sample{Name: sj.Name, Labels: sj.Labels})
}

// ServeHTTP serves the /ts endpoint: the JSON document, filtered by
// ?res= and ?prefix=.
func (c *Collector) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if c == nil {
		http.Error(w, "time-series collector disabled", http.StatusNotFound)
		return
	}
	q := req.URL.Query()
	doc := c.JSON(q.Get("res"), q.Get("prefix"))
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// Summary is the compact collector view surfaced on /debug/vars and in
// the campaign status ts section.
type Summary struct {
	Series        int     `json:"series"`
	Ticks         uint64  `json:"ticks"`
	StrideSeconds float64 `json:"stride_seconds"`
	DroppedSeries int64   `json:"dropped_series"`
	Subscribers   int     `json:"sse_subscribers"`
	Published     uint64  `json:"sse_published"`
	Dropped       uint64  `json:"sse_dropped"`
}

// Summarize snapshots the collector (nil for a nil collector).
func (c *Collector) Summarize() *Summary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	s := &Summary{
		Series:        len(c.series),
		Ticks:         c.ticks,
		StrideSeconds: Stride.Seconds(),
		DroppedSeries: c.dropped,
	}
	c.mu.Unlock()
	if h := c.hub; h != nil {
		s.Subscribers = h.Subscribers()
		s.Published = h.Published()
		s.Dropped = h.Drops()
	}
	return s
}
