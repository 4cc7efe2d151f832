package ts

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Event types published over the SSE stream. The wire format is the
// standard text/event-stream framing: `event: <type>`, `id: <seq>`,
// `data: <single-line JSON>`, blank line.
const (
	EventHello    = "hello"    // sent once per subscriber on connect
	EventMetrics  = "metrics"  // per-tick registry deltas ([]{k,v,r})
	EventCampaign = "campaign" // campaign.StatusJSON progress snapshots
	EventFleet    = "fleet"    // dist coordinator status snapshots
	EventSpan     = "span"     // completed obs.SpanRecord
	EventAlert    = "alert"    // alert transition records
)

// Event is one fanout message: a type tag and pre-marshaled JSON data.
type Event struct {
	Type string
	Data []byte
	Seq  uint64
}

// QueueDepth is the per-subscriber bounded queue depth.
const QueueDepth = 256

// Hub fans events out to SSE subscribers. Publish is non-blocking: a
// subscriber whose bounded queue is full loses the event, and the loss
// is counted (per subscriber and in the epvf_obs_sse_drops counter) —
// slow clients never block the publisher. A nil *Hub no-ops on every
// method, so publish sites stay zero-cost when live telemetry is off.
type Hub struct {
	reg *obs.Registry

	nsubs     atomic.Int32
	seq       atomic.Uint64
	published atomic.Uint64
	dropped   atomic.Uint64

	mu   sync.Mutex
	subs map[*Sub]struct{}
}

// NewHub returns a hub counting drops into reg (nil means the default
// registry at drop time).
func NewHub(reg *obs.Registry) *Hub {
	return &Hub{reg: reg, subs: make(map[*Sub]struct{})}
}

// Sub is one subscriber: a bounded event channel plus drop accounting.
type Sub struct {
	hub    *Hub
	ch     chan Event
	drops  atomic.Uint64
	closed bool
}

// Subscribe registers a subscriber with a QueueDepth-deep queue.
// Returns nil on a nil hub.
func (h *Hub) Subscribe() *Sub {
	if h == nil {
		return nil
	}
	s := &Sub{hub: h, ch: make(chan Event, QueueDepth)}
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	h.nsubs.Add(1)
	return s
}

// C returns the subscriber's event channel; it is closed by Close.
func (s *Sub) C() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Drops returns how many events this subscriber lost to a full queue.
func (s *Sub) Drops() uint64 {
	if s == nil {
		return 0
	}
	return s.drops.Load()
}

// Close unregisters the subscriber and closes its channel. Safe to call
// twice and on nil.
func (s *Sub) Close() {
	if s == nil {
		return
	}
	h := s.hub
	h.mu.Lock()
	if !s.closed {
		s.closed = true
		delete(h.subs, s)
		close(s.ch)
		h.nsubs.Add(-1)
	}
	h.mu.Unlock()
}

// Subscribers returns the current subscriber count.
func (h *Hub) Subscribers() int {
	if h == nil {
		return 0
	}
	return int(h.nsubs.Load())
}

// Published returns how many events have been published.
func (h *Hub) Published() uint64 {
	if h == nil {
		return 0
	}
	return h.published.Load()
}

// Drops returns the total events lost across all subscribers.
func (h *Hub) Drops() uint64 {
	if h == nil {
		return 0
	}
	return h.dropped.Load()
}

// Publish fans data (already-marshaled single-line JSON) out to every
// subscriber without blocking. Nil-safe: the disabled path is one
// branch; with zero subscribers it is one atomic load.
func (h *Hub) Publish(typ string, data []byte) {
	if h == nil || h.nsubs.Load() == 0 {
		return
	}
	ev := Event{Type: typ, Data: data, Seq: h.seq.Add(1)}
	h.published.Add(1)
	var drops uint64
	h.mu.Lock()
	for s := range h.subs {
		select {
		case s.ch <- ev:
		default:
			s.drops.Add(1)
			drops++
		}
	}
	h.mu.Unlock()
	if drops > 0 {
		h.dropped.Add(drops)
		reg := h.reg
		if reg == nil {
			reg = obs.Default()
		}
		reg.Counter("epvf_obs_sse_drops").Add(int64(drops))
	}
}

// PublishJSON marshals v and publishes it. The marshal is skipped
// entirely when there are no subscribers, so instrumented sites pay one
// atomic load when nobody is watching.
func (h *Hub) PublishJSON(typ string, v any) {
	if h == nil || h.nsubs.Load() == 0 {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	h.Publish(typ, data)
}

// keepaliveEvery is the SSE comment-ping period keeping idle
// connections alive through proxies.
const keepaliveEvery = 15 * time.Second

// ServeHTTP serves the /events SSE stream: a hello event, then every
// published event as `event:`/`id:`/`data:` frames, with comment pings
// while idle. The subscription is torn down when the client goes away.
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h == nil {
		http.Error(w, "event stream disabled", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	sub := h.Subscribe()
	defer sub.Close()

	fmt.Fprintf(w, "retry: 2000\nevent: %s\ndata: {\"subscribers\":%d}\n\n",
		EventHello, h.Subscribers())
	fl.Flush()

	ping := time.NewTicker(keepaliveEvery)
	defer ping.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ping.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n",
				ev.Type, ev.Seq, ev.Data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
