package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/report"
)

// DefaultFlightSpans is how many completed spans a tracer retains for
// its flight recorder (~100KB).
const DefaultFlightSpans = 512

// FlightView is the serializable snapshot /debug/flight renders.
type FlightView struct {
	SpansTotal uint64 `json:"spans_total"`
	// RecentSpans are the tracer's retained spans, oldest first.
	RecentSpans []SpanRecord `json:"recent_spans"`
}

// Flight snapshots the tracer's flight recorder: how many spans it ever
// recorded and the ones it retains. Nil-safe (zero view).
func (t *Tracer) Flight() FlightView {
	if t == nil {
		return FlightView{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := FlightView{SpansTotal: t.total}
	if t.recent.Len() > 0 {
		v.RecentSpans = t.recent.Items()
	}
	return v
}

// WriteFlight renders the flight recorder as a human-readable dump (the
// ?format=text view of /debug/flight, and the abnormal-exit dump).
func (t *Tracer) WriteFlight(w io.Writer) {
	v := t.Flight()
	fmt.Fprintf(w, "flight recorder: %d spans recorded (%d retained)\n", v.SpansTotal, len(v.RecentSpans))
	if len(v.RecentSpans) == 0 {
		return
	}
	tab := report.NewTable("Recent spans (oldest first)", "Proc", "Span", "Trace", "Start", "Wall")
	for _, rec := range v.RecentSpans {
		tab.AddRow(rec.Proc, rec.Name, rec.TraceID,
			rec.Start.Format("15:04:05.000"),
			time.Duration(rec.WallNS).Round(time.Microsecond).String())
	}
	fmt.Fprint(w, tab.String())
}

// FlightHandler serves t's flight recorder: JSON by default, the text
// rendering with ?format=text. The component that owns both a tracer and
// an obs.Server mounts it at /debug/flight.
func FlightHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			t.WriteFlight(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(t.Flight())
	})
}

// flightError marks a command's error with the tracer it ran with.
type flightError struct {
	error
	tracer *Tracer
}

func (e flightError) Unwrap() error { return e.error }

// WithFlight marks err with the tracer the failing command ran with, so
// the process's abnormal-exit path can dump that tracer's recent spans
// (DumpFlight). A nil err or tracer leaves err as it is.
func WithFlight(err error, t *Tracer) error {
	if err == nil || t == nil {
		return err
	}
	return flightError{err, t}
}

// DumpFlight writes the text dump of the tracer err was marked with by
// WithFlight — CLIs call it on abnormal exit so the last spans before a
// failure are not lost. It writes nothing when err carries no tracer or
// the tracer recorded no span: a flag error that dies before any work
// prints no empty dump.
func DumpFlight(w io.Writer, err error) {
	var fe flightError
	if errors.As(err, &fe) && fe.tracer.Flight().SpansTotal > 0 {
		fe.tracer.WriteFlight(w)
	}
}
