package inc

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/epvf"
	"repro/internal/interp"
)

// maxColdAllocRatio bounds the bytes a cold incremental analysis
// allocates, as a multiple of a plain analysis of the same trace. The
// kernels measure 3.2–4.2x; the bound leaves about 20% above the highest.
const maxColdAllocRatio = 5.0

// allocBytes returns the bytes the process allocated while fn ran.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestColdAllocRatio: on every kernel, a cold AnalyzeTrace into an empty
// store allocates at most maxColdAllocRatio times the bytes
// epvf.AnalyzeTrace allocates on the same trace. The section bookkeeping
// (partition, slice hashes, profiles, cache entries) must stay in
// proportion to the walks it caches.
func TestColdAllocRatio(t *testing.T) {
	for _, b := range bench.All() {
		res, err := epvf.Profile(b.MustModule(1), interp.Config{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		tr := res.Trace
		store := memStore(t)
		plain := allocBytes(func() { epvf.AnalyzeTrace(tr, epvf.Config{}) })
		cold := allocBytes(func() {
			if _, err := AnalyzeTrace(tr, Config{Store: store}); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
		})
		ratio := float64(cold) / float64(plain)
		t.Logf("%-14s plain %9d B  cold inc %9d B  ratio %.2f", b.Name, plain, cold, ratio)
		if ratio > maxColdAllocRatio {
			t.Errorf("%s: cold incremental analysis allocates %.2fx a plain analysis (%d vs %d B), want at most %.1fx",
				b.Name, ratio, cold, plain, maxColdAllocRatio)
		}
	}
}
