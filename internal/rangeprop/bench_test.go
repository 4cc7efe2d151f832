package rangeprop

import (
	"runtime/debug"
	"testing"

	"repro/internal/bench"
	"repro/internal/ddg"
	"repro/internal/interp"
	"repro/internal/trace"
)

// ludTrace records lud's golden trace at the given scale with its ACE mask.
func ludTrace(tb testing.TB, scale int) (*trace.Trace, *ddg.Graph, []bool) {
	tb.Helper()
	bb, _ := bench.Get("lud")
	res, err := interp.Run(bb.MustModule(scale), interp.Config{Record: true})
	if err != nil {
		tb.Fatal(err)
	}
	g := ddg.New(res.Trace)
	return res.Trace, g, g.ACEMask()
}

// maxAnalyzeAllocs bounds one serial Analyze: the operand table, the
// result with its use and def masks, and the walker's stamps and worklist
// (the layout is the trace's OpBase column; the serial walk reads its
// seeds straight off the trace).
const maxAnalyzeAllocs = 6

// TestAnalyzeAllocs gates the propagation model's allocations: a fixed
// handful per Analyze, none per access or per walk step, so doubling the
// trace does not add any. The collector is off while counting: a runtime
// goroutine allocates after every GC cycle (the unique package's map
// cleanup), and how many cycles land in the count depends on the heap's
// size, not on Analyze.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate; the race build only slows it down")
	}
	var perScale []float64
	for _, scale := range []int{1, 2} {
		tr, g, mask := ludTrace(t, scale)
		gc := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(3, func() { Analyze(tr, g, mask, Config{}) })
		debug.SetGCPercent(gc)
		if allocs > maxAnalyzeAllocs {
			t.Fatalf("lud scale %d (%d events): %.0f allocations per Analyze, want <= %d",
				scale, tr.NumEvents(), allocs, maxAnalyzeAllocs)
		}
		perScale = append(perScale, allocs)
	}
	if perScale[1] > perScale[0] {
		t.Fatalf("allocations grew with the trace: %.0f at scale 1, %.0f at scale 2", perScale[0], perScale[1])
	}
}

// BenchmarkAnalyze measures the crash+propagation model over a full
// benchmark trace — the dominant cost of the ePVF analysis (Fig. 10).
func BenchmarkAnalyze(b *testing.B) {
	tr, g, mask := ludTrace(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Analyze(tr, g, mask, Config{})
		if r.CrashBitCount == 0 {
			b.Fatal("no crash bits")
		}
	}
}

// BenchmarkAnalyzeExact measures the exact-oracle variant.
func BenchmarkAnalyzeExact(b *testing.B) {
	tr, g, mask := ludTrace(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(tr, g, mask, Config{ExactAddress: true})
	}
}
