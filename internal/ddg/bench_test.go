package ddg

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
)

// BenchmarkACEMask measures the reverse-BFS ACE-graph construction.
func BenchmarkACEMask(b *testing.B) {
	bb, _ := bench.Get("hotspot")
	m := bb.MustModule(1)
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		b.Fatal(err)
	}
	g := New(res.Trace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mask := g.ACEMask()
		if CountMask(mask) == 0 {
			b.Fatal("empty ACE graph")
		}
	}
}
