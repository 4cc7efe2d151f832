package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/epvf"
	"repro/internal/obs"
	"repro/internal/protect"
)

func TestLoadModuleBench(t *testing.T) {
	m, err := loadModule("mm", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "mm" {
		t.Errorf("module %q", m.Name)
	}
}

func TestLoadModuleErrors(t *testing.T) {
	if _, err := loadModule("", "", 1); err == nil {
		t.Error("no source accepted")
	}
	if _, err := loadModule("mm", "x.c", 1); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := loadModule("nope", "", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := loadModule("", "/does/not/exist.c", 1); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadModuleFromSourceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.c")
	src := `void main() { output(41 + 1); }`
	if err := os.WriteFile(path, []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	m, err := loadModule("", path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("main") == nil {
		t.Error("compiled module missing main")
	}
}

func TestLoadModuleFromIRFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.ll")
	src := "define void @main() {\nentry:\n  output i32 42\n  ret void\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	m, err := loadModule("", path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("main") == nil {
		t.Error("parsed module missing main")
	}
}

func TestRunListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunAnalysis(t *testing.T) {
	// Analyze the smallest benchmark end to end through the CLI.
	if err := run([]string{"-bench", "lud", "-sample", "0.1", "-per-instr", "3", "-per-func"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bench", "ghost"}); err == nil ||
		!strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSaveAndLoadTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lud.trace")
	if err := run([]string{"-bench", "lud", "-save-trace", path}); err != nil {
		t.Fatalf("save: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
	if err := run([]string{"-bench", "lud", "-load-trace", path}); err != nil {
		t.Fatalf("load: %v", err)
	}
	// Loading against the wrong module fails.
	if err := run([]string{"-bench", "mm", "-load-trace", path}); err == nil {
		t.Error("loaded a lud trace against mm")
	}
}

func TestDotExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.dot")
	if err := run([]string{"-bench", "lud", "-dot", path, "-dot-events", "50"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(b), "digraph ddg") {
		t.Fatalf("dot file bad: %v", err)
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, readErr := io.ReadAll(r)
	r.Close()
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(out)
}

// startServeCmd runs the `epvf serve` subcommand in the background and
// returns its bound address.
func startServeCmd(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, args, func(addr string) { addrCh <- addr })
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve shutdown: %v", err)
		}
	})
	select {
	case addr := <-addrCh:
		return addr
	case err := <-done:
		t.Fatalf("serve exited early: %v", err)
		return ""
	}
}

func TestClientModeByteIdenticalToLocal(t *testing.T) {
	addr := startServeCmd(t, "-cache-dir", t.TempDir())
	args := []string{"-bench", "lud", "-timing=false", "-classes", "-per-func", "-per-instr", "3"}
	local := captureStdout(t, func() error { return run(args) })
	cold := captureStdout(t, func() error { return run(append([]string{"-server", addr}, args...)) })
	warm := captureStdout(t, func() error { return run(append([]string{"-server", addr}, args...)) })
	if cold != local {
		t.Errorf("daemon (cold) output differs from local:\n--- local ---\n%s\n--- daemon ---\n%s", local, cold)
	}
	if warm != local {
		t.Errorf("daemon (cached) output differs from local:\n--- local ---\n%s\n--- daemon ---\n%s", local, warm)
	}
	if !strings.Contains(local, "ePVF analysis: lud") {
		t.Errorf("implausible report:\n%s", local)
	}
}

func TestClientModeRejectsLocalOnlyFlags(t *testing.T) {
	addr := startServeCmd(t)
	for _, extra := range [][]string{
		{"-sample", "0.1"},
		{"-save-trace", "x.trace"},
		{"-load-trace", "x.trace"},
		{"-dot", "g.dot"},
		{"-depth", "-1"},
	} {
		args := append([]string{"-server", addr, "-bench", "lud"}, extra...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), "local analysis") {
			t.Errorf("%v: err = %v, want local-analysis rejection", extra, err)
		}
	}
}

// TestClientModeTraced checks that -trace-out combines with -server: the
// written JSONL carries both the client's local root span and the
// daemon's handling span, correlated under one trace ID with a
// parent/child edge across the process boundary.
func TestClientModeTraced(t *testing.T) {
	addr := startServeCmd(t)
	spansPath := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := run([]string{"-server", addr, "-bench", "lud", "-trace-out", spansPath}); err != nil {
		t.Fatalf("traced client run: %v", err)
	}
	data, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.SpanRecord
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	// The test runs client and daemon in one process, so daemon-internal
	// phase spans (their own trace IDs) form separate trees; pick the
	// correlated request trace by its client root.
	var tr *obs.SpanTree
	for _, cand := range obs.BuildSpanTrees(recs) {
		for _, root := range cand.Roots {
			if root.Name == "epvf analyze lud" {
				tr = cand
			}
		}
	}
	if tr == nil {
		t.Fatalf("no trace rooted at the client span; spans: %s", data)
	}
	if len(tr.Procs) != 2 {
		t.Errorf("trace spans procs %v, want client + epvf-serve", tr.Procs)
	}
	if len(tr.Roots) != 1 || tr.Orphans != 0 {
		t.Errorf("trace has %d roots, %d orphans, want one rooted tree:\n%s",
			len(tr.Roots), tr.Orphans, tr.RenderWaterfall())
	}
	if len(tr.Roots) == 1 && len(tr.Roots[0].Children) == 0 {
		t.Errorf("daemon span did not attach under the client root:\n%s", tr.RenderWaterfall())
	}
}

func TestClientModeBadServer(t *testing.T) {
	if err := run([]string{"-bench", "lud", "-server", "127.0.0.1:1"}); err == nil {
		t.Error("unreachable daemon not reported")
	}
}

// writeDiffPair writes two versions of a two-worker program where the
// edit touches only function f.
func writeDiffPair(t *testing.T) (oldPath, newPath string) {
	t.Helper()
	src := `
void f() {
  int a[8];
  int i = 0;
  while (i < 48) { a[i % 8] = i * 3 + 1; i = i + 1; }
  int j = 0;
  while (j < 8) { output(a[j]); j = j + 1; }
}
void g() {
  int b[6];
  int i = 0;
  while (i < 36) { b[i % 6] = i * 5 + 2; i = i + 1; }
  int j = 0;
  while (j < 6) { output(b[j]); j = j + 1; }
}
int main() {
  f();
  g();
  return 0;
}
`
	dir := t.TempDir()
	oldPath = filepath.Join(dir, "old.c")
	newPath = filepath.Join(dir, "new.c")
	if err := os.WriteFile(oldPath, []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(src, "i * 3 + 1", "i * 3 + 2", 1)
	if err := os.WriteFile(newPath, []byte(edited), 0o600); err != nil {
		t.Fatal(err)
	}
	return oldPath, newPath
}

func TestDiffCmd(t *testing.T) {
	oldPath, newPath := writeDiffPair(t)
	out := captureStdout(t, func() error { return runDiff([]string{oldPath, newPath}) })
	for fn, want := range map[string]string{"f": "changed", "g": "unchanged", "main": "unchanged"} {
		if row := diffRow(out, fn); row == nil || row[len(row)-1] != want {
			t.Errorf("row %s = %v, want Changed %q:\n%s", fn, row, want, out)
		}
	}
	if !strings.Contains(out, "module ePVF:") {
		t.Errorf("diff missing module delta line:\n%s", out)
	}
	if !strings.Contains(out, "functions: 1 changed ([f])") {
		t.Errorf("diff did not pin the edit to function f:\n%s", out)
	}
}

// diffRow returns the fields of the diff table row for function name.
func diffRow(out, name string) []string {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[0] == name {
			return f
		}
	}
	return nil
}

func TestDiffCmdUsage(t *testing.T) {
	if err := runDiff([]string{"only-one-operand.c"}); err == nil ||
		!strings.Contains(err.Error(), "usage") {
		t.Errorf("bad operand count: err = %v", err)
	}
}

func TestGateCmd(t *testing.T) {
	// Report-only (no threshold): exits zero, prints the delta.
	out := captureStdout(t, func() error {
		return runGate([]string{"-bench", "lud", "-budget", "0.24"})
	})
	if !strings.Contains(out, "gate: REPORT") || !strings.Contains(out, "analysis seconds") {
		t.Errorf("gate report output:\n%s", out)
	}
	// A generous pinned threshold passes.
	out = captureStdout(t, func() error {
		return runGate([]string{"-bench", "lud", "-budget", "0.24", "-threshold", "0.99"})
	})
	if !strings.Contains(out, "gate: PASS") {
		t.Errorf("gate pass output:\n%s", out)
	}
	// A tight threshold is a regression: non-zero (error) exit.
	if err := runGate([]string{"-bench", "lud", "-budget", "0.24", "-threshold", "0.01"}); err == nil ||
		!strings.Contains(err.Error(), "regression") {
		t.Errorf("tight threshold: err = %v, want ePVF regression", err)
	}
}

// TestGateMatchesAnalyzeModule checks gate's two ePVF lines against
// plain analyses of the baseline module and of the module protected by
// the plan gate prints.
func TestGateMatchesAnalyzeModule(t *testing.T) {
	for _, name := range []string{"lud", "nw"} {
		out := captureStdout(t, func() error { return runGate([]string{"-bench", name}) })
		m, err := loadModule(name, "", 1)
		if err != nil {
			t.Fatal(err)
		}
		base, golden, err := epvf.AnalyzeModule(m, epvf.Config{})
		if err != nil {
			t.Fatal(err)
		}
		per := base.PerInstruction()
		plan := protect.Plan(protect.RankByEPVF(per), per, golden.DynInstrs, 0.24)
		if !strings.Contains(out, fmt.Sprintf("gate: protecting %d instructions", len(plan))) {
			t.Errorf("%s: gate protected a different plan than %d instructions:\n%s", name, len(plan), out)
		}
		if err := protect.ApplyByID(m, protect.IDsOf(plan)); err != nil {
			t.Fatal(err)
		}
		prot, _, err := epvf.AnalyzeModule(m, epvf.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf("gate: baseline ePVF %.6f ", base.EPVF()),
			fmt.Sprintf("gate: protected ePVF %.6f ", prot.EPVF()),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: gate output lacks %q:\n%s", name, want, out)
			}
		}
	}
}

func TestPrintSrc(t *testing.T) {
	out := captureStdout(t, func() error { return run([]string{"-bench", "nw", "-print-src"}) })
	if !strings.Contains(out, "void main()") {
		t.Errorf("print-src output:\n%s", out)
	}
	if err := run([]string{"-print-src"}); err == nil {
		t.Error("print-src without -bench accepted")
	}
}
