package main

import (
	"os"
	"testing"
)

// runMainEnv makes the test binary act as the benchmark itself, so the
// self-test can run each workload in a child process of its own.
const runMainEnv = "PERFBENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestSelftest runs every workload at its smallest size, untraced and
// traced, with all output checks on.
func TestSelftest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv(runMainEnv, "1")
	if err := runSelftest(testWriter{t}, "../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}

// TestTail checks the tail rule: the highest grid percentile with at
// least ten samples beyond it.
func TestTail(t *testing.T) {
	var l latencies
	for i := 1; i <= 200; i++ {
		l = append(l, float64(i))
	}
	q, v, beyond := l.tail()
	if q != 0.95 || beyond != 10 || v < 190 || v > 191 {
		t.Fatalf("tail of 1..200 = p%g %v (%d beyond), want p95 with 10 beyond", q*100, v, beyond)
	}
	if got := l.p50(); got != 100.5 {
		t.Fatalf("p50 of 1..200 = %v, want 100.5", got)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
