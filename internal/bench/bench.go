// Package bench re-implements the paper's benchmark suite (Table IV) in the
// MiniC language: eight Rodinia-style OpenMP kernels (serialized), a basic
// matrix-multiplication kernel, the LULESH proxy application (reduced to
// its core hydro loop structure), plus the kmeans kernel that appears in
// the paper's Table II. Input data is generated in-program by a
// deterministic LCG so golden runs are reproducible and input preparation
// is part of the analyzed trace, like the original benchmarks' init phases.
package bench

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/ir"
	"repro/internal/lang"
)

// Benchmark describes one workload.
type Benchmark struct {
	// Name is the short identifier used throughout the paper's tables.
	Name string
	// Domain matches the Table IV application domain.
	Domain string
	// SourceAt renders the MiniC source at a given scale (>= 1). Scale
	// multiplies the problem dimensions; scale 1 is the default used by
	// tests and tables, larger scales provide the "much larger inputs" of
	// the §V case study.
	SourceAt func(scale int) string
}

// Module compiles the benchmark at the given scale.
func (b *Benchmark) Module(scale int) (*ir.Module, error) {
	if scale < 1 {
		scale = 1
	}
	return lang.Compile(b.Name, b.SourceAt(scale))
}

// MustModule compiles the benchmark, panicking on error (the suite is
// statically known-good and covered by tests).
func (b *Benchmark) MustModule(scale int) *ir.Module {
	m, err := b.Module(scale)
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", b.Name, err))
	}
	return m
}

// LOC counts the non-blank, non-comment source lines at scale 1 — the
// Table IV complexity measure.
func (b *Benchmark) LOC() int {
	n := 0
	for _, line := range strings.Split(b.SourceAt(1), "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		n++
	}
	return n
}

// all lists the suite in Table IV order (descending paper LOC), followed by
// the kmeans extra.
var all = []*Benchmark{
	{Name: "lulesh", Domain: "Physics Modelling", SourceAt: luleshSource},
	{Name: "particlefilter", Domain: "Medical Imaging", SourceAt: particlefilterSource},
	{Name: "srad", Domain: "Image Processing", SourceAt: sradSource},
	{Name: "nw", Domain: "Bioinformatics", SourceAt: nwSource},
	{Name: "hotspot", Domain: "Physics Simulation", SourceAt: hotspotSource},
	{Name: "lavamd", Domain: "Molecular Dynamics", SourceAt: lavamdSource},
	{Name: "bfs", Domain: "Graph Algorithm", SourceAt: bfsSource},
	{Name: "lud", Domain: "Linear Algebra", SourceAt: ludSource},
	{Name: "pathfinder", Domain: "Grid Traversal", SourceAt: pathfinderSource},
	{Name: "mm", Domain: "Linear Algebra", SourceAt: mmSource},
	{Name: "kmeans", Domain: "Data Mining", SourceAt: kmeansSource},
}

// All returns the benchmark suite in Table IV order. The returned slice is
// fresh; the Benchmark pointers are shared.
func All() []*Benchmark {
	out := make([]*Benchmark, len(all))
	copy(out, all)
	return out
}

// Names lists the suite's benchmark names in Table IV order.
func Names() []string {
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = b.Name
	}
	return out
}

// Load returns the module a command line names: the built-in benchmark
// name at the given scale, or the file srcPath, which is parsed as textual
// IR when it ends in .ll and compiled as MiniC otherwise. Exactly one of
// name and srcPath must be set.
func Load(name, srcPath string, scale int) (*ir.Module, error) {
	switch {
	case name != "" && srcPath != "":
		return nil, fmt.Errorf("-bench and -src are mutually exclusive")
	case name != "":
		b, ok := Get(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q; available: %s", name, strings.Join(Names(), ", "))
		}
		return b.Module(scale)
	case srcPath != "":
		src, err := os.ReadFile(srcPath)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(srcPath, ".ll") {
			return ir.Parse(string(src))
		}
		return lang.Compile(strings.TrimSuffix(srcPath, ".c"), string(src))
	default:
		return nil, fmt.Errorf("specify -bench <name> or -src <file>")
	}
}

// Paper10 returns the ten benchmarks of the paper's main evaluation
// (Table IV).
func Paper10() []*Benchmark {
	out := make([]*Benchmark, 0, 10)
	for _, b := range all {
		if b.Name != "kmeans" {
			out = append(out, b)
		}
	}
	return out
}

// Get returns the named benchmark.
func Get(name string) (*Benchmark, bool) {
	for _, b := range all {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

// SDCProne5 lists the five benchmarks with SDC rates above 10% that the §V
// case study evaluates.
func SDCProne5() []*Benchmark {
	names := []string{"mm", "pathfinder", "hotspot", "lud", "nw"}
	out := make([]*Benchmark, 0, len(names))
	for _, n := range names {
		if b, ok := Get(n); ok {
			out = append(out, b)
		}
	}
	return out
}

// lcgPrelude is the deterministic in-program input generator shared by the
// suite: the classic glibc-style LCG.
const lcgPrelude = `
int seed;
int irand() {
  seed = seed * 1103515245 + 12345;
  return (seed >> 16) & 32767;
}
double frand() {
  return (double)irand() / 32768.0;
}
`
