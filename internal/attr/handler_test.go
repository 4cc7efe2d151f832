package attr_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/fi"
)

// buildSnapshot runs a small campaign and returns its snapshot plus the
// metadata for drill-down labels.
func buildSnapshot(t *testing.T) (*attr.Snapshot, *attr.Meta) {
	t.Helper()
	a, g := analyze(t)
	runner, err := fi.NewRunner(g.Trace.Module, g, fi.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ledger := attr.NewLedger(attr.NewClassifier(a))
	for _, rec := range runner.RunRange(0, 150, 4) {
		ledger.Observe(rec)
	}
	return ledger.Snapshot(), attr.NewMeta(g.Trace)
}

func TestHandlerDrillDown(t *testing.T) {
	snap, meta := buildSnapshot(t)
	h := attr.Handler(func() *attr.Snapshot { return snap }, meta)

	// Top level: summary JSON with hash, classes, functions, top rows.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/attr", nil))
	if rec.Code != 200 {
		t.Fatalf("summary status %d", rec.Code)
	}
	var top struct {
		Hash    string           `json:"hash"`
		Summary attr.SummaryJSON `json:"summary"`
		Classes []attr.ClassJSON `json:"classes"`
		Funcs   []attr.FuncJSON  `json:"funcs"`
		Top     []attr.InstrJSON `json:"top"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, rec.Body.String())
	}
	if top.Hash != snap.Hash() || top.Summary.Runs != snap.Runs {
		t.Errorf("summary hash/runs %s/%d, want %s/%d", top.Hash, top.Summary.Runs, snap.Hash(), snap.Runs)
	}
	if len(top.Classes) != 3 || len(top.Funcs) == 0 || len(top.Top) == 0 {
		t.Errorf("summary drill-down empty: %d classes, %d funcs, %d instrs",
			len(top.Classes), len(top.Funcs), len(top.Top))
	}

	// Middle level: per-function rows, using a function the summary named.
	fn := top.Funcs[0].Func
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/attr?func="+fn, nil))
	var fview struct {
		Func   string           `json:"func"`
		Instrs []attr.InstrJSON `json:"instrs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fview); err != nil {
		t.Fatalf("func view not JSON: %v", err)
	}
	if fview.Func != fn || len(fview.Instrs) == 0 {
		t.Errorf("func view for %q has %d instrs", fview.Func, len(fview.Instrs))
	}

	// Bottom level: per-bit detail of the most-targeted instruction.
	id := top.Top[0].Instr
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/attr?instr=%d", id), nil))
	var iview struct {
		Instr *attr.InstrJSON      `json:"instr"`
		Meta  *attr.InstrMeta      `json:"meta"`
		Cells []attr.CellJSON      `json:"cells"`
		Bits  []attr.BitDetailJSON `json:"bits"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &iview); err != nil {
		t.Fatalf("instr view not JSON: %v", err)
	}
	if len(iview.Cells) == 0 || len(iview.Bits) == 0 {
		t.Errorf("instr %d view empty: %d cells, %d bits", id, len(iview.Cells), len(iview.Bits))
	}
	if iview.Meta == nil || iview.Meta.Text == "" {
		t.Errorf("instr %d view missing IR metadata: %+v", id, iview.Meta)
	}

	// Text rendering at each level.
	for _, q := range []string{"format=text", "func=" + fn + "&format=text",
		fmt.Sprintf("instr=%d&format=text", id)} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/attr?"+q, nil))
		if rec.Code != 200 || !strings.Contains(rec.Header().Get("Content-Type"), "text/plain") {
			t.Errorf("?%s: status %d content-type %q", q, rec.Code, rec.Header().Get("Content-Type"))
		}
		if rec.Body.Len() == 0 {
			t.Errorf("?%s: empty body", q)
		}
	}

	// Bad instr parameter.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/attr?instr=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bad instr: status %d, want 400", rec.Code)
	}
}

// TestHandlerDisabledLedger: a nil ledger's Snapshot method value is the
// src callback when attribution is off; the endpoint must answer 503,
// not panic.
func TestHandlerDisabledLedger(t *testing.T) {
	var l *attr.Ledger
	h := attr.Handler(l.Snapshot, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/attr", nil))
	if rec.Code != 503 {
		t.Errorf("nil-ledger /attr status %d, want 503", rec.Code)
	}
}

// TestWriteHTML checks the self-contained report: well-formed envelope,
// all sections present, heatmap cells rendered.
func TestWriteHTML(t *testing.T) {
	snap, meta := buildSnapshot(t)
	var b strings.Builder
	if err := attr.WriteHTML(&b, "kernel test", snap, meta); err != nil {
		t.Fatal(err)
	}
	html := b.String()
	if !strings.HasPrefix(html, "<!DOCTYPE html>") {
		t.Errorf("report does not start with <!DOCTYPE html>: %.60q", html)
	}
	if !strings.Contains(html, "</html>") {
		t.Error("report is not closed with </html>")
	}
	for _, want := range []string{
		"kernel test", "Model validation", "Misprediction by function",
		"Most mispredicted instructions", "heatmap", "crash precision",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// A nil-meta report (no module available) still renders.
	b.Reset()
	if err := attr.WriteHTML(&b, "no meta", snap, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "</html>") {
		t.Error("nil-meta report is not closed")
	}
}
