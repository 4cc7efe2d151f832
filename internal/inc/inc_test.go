package inc

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/epvf"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/protect"
	"repro/internal/rangeprop"
	"repro/internal/trace"
)

func memStore(t *testing.T) *cache.Store {
	t.Helper()
	s, err := cache.Open(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lang.Compile("prog", src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return m
}

// assertSameAnalysis is the bit-identity oracle: every raw integer the
// composed analysis carries — including the full per-use and per-def
// crash-mask maps, from which every summary row derives — must equal the
// from-scratch run's exactly.
func assertSameAnalysis(t *testing.T, label string, want, got *epvf.Analysis) {
	t.Helper()
	if want.TotalBits != got.TotalBits || want.ACEBits != got.ACEBits || want.ACENodes != got.ACENodes {
		t.Fatalf("%s: numerators differ: total %d/%d ace %d/%d nodes %d/%d",
			label, want.TotalBits, got.TotalBits, want.ACEBits, got.ACEBits, want.ACENodes, got.ACENodes)
	}
	w, g := want.CrashResult, got.CrashResult
	if w.CrashBitCount != g.CrashBitCount || w.UseCrashBitCount != g.UseCrashBitCount ||
		w.AccessesAnalyzed != g.AccessesAnalyzed {
		t.Fatalf("%s: crash tallies differ: def %d/%d use %d/%d accesses %d/%d",
			label, w.CrashBitCount, g.CrashBitCount, w.UseCrashBitCount, g.UseCrashBitCount,
			w.AccessesAnalyzed, g.AccessesAnalyzed)
	}
	if wu, gu := useMasks(w), useMasks(g); !reflect.DeepEqual(wu, gu) {
		t.Fatalf("%s: per-use crash masks differ (%d vs %d non-zero)", label, len(wu), len(gu))
	}
	if wd, gd := defMasks(w), defMasks(g); !reflect.DeepEqual(wd, gd) {
		t.Fatalf("%s: per-def crash masks differ (%d vs %d non-zero)", label, len(wd), len(gd))
	}
}

// useMasks collects r's non-zero per-use masks.
func useMasks(r *rangeprop.Result) map[trace.Use]uint64 {
	out := make(map[trace.Use]uint64)
	r.EachUse(func(u trace.Use, m uint64) { out[u] = m })
	return out
}

// defMasks collects r's non-zero per-def masks.
func defMasks(r *rangeprop.Result) map[int64]uint64 {
	out := make(map[int64]uint64)
	r.EachDef(func(ev int64, m uint64) { out[ev] = m })
	return out
}

// coldWarm runs the incremental analysis twice against one store and
// checks both against the from-scratch analysis: the cold pass computes
// and fills, the warm pass must reuse every section and still match.
func coldWarm(t *testing.T, label string, m *ir.Module, store *cache.Store, cfg epvf.Config) {
	t.Helper()
	want, _, err := epvf.AnalyzeModule(m, cfg)
	if err != nil {
		t.Fatalf("%s: scratch: %v", label, err)
	}
	icfg := Config{Store: store, Epvf: cfg}
	cold, err := AnalyzeModule(m, icfg)
	if err != nil {
		t.Fatalf("%s: cold: %v", label, err)
	}
	assertSameAnalysis(t, label+" cold", want, cold.Analysis)
	warm, err := AnalyzeModule(m, icfg)
	if err != nil {
		t.Fatalf("%s: warm: %v", label, err)
	}
	assertSameAnalysis(t, label+" warm", want, warm.Analysis)
	if warm.Stats.Recomputed != 0 || warm.Stats.Reused != len(warm.Stats.Sections) {
		t.Fatalf("%s: warm pass recomputed %d of %d sections (want 0): %v",
			label, warm.Stats.Recomputed, len(warm.Stats.Sections), warm.Stats.RecomputedNames())
	}
}

// TestKernelsBitIdentical is the Table-IV half of the tentpole property:
// compose(sections) == whole-module analysis, bit for bit, on every
// built-in kernel, cold and warm.
func TestKernelsBitIdentical(t *testing.T) {
	for _, b := range bench.All() {
		if testing.Short() && b.Name != "mm" && b.Name != "nw" {
			continue
		}
		m, err := b.Module(1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		coldWarm(t, b.Name, m, memStore(t), epvf.Config{})
	}
}

// TestUnboundedDepthBitIdentical repeats the property at the unbounded
// walk depth the regression gate uses (and with the exact-address oracle,
// whose masks enter the slice hash).
func TestUnboundedDepthBitIdentical(t *testing.T) {
	b, ok := bench.Get("nw")
	if !ok {
		t.Fatal("no nw benchmark")
	}
	m, err := b.Module(1)
	if err != nil {
		t.Fatal(err)
	}
	coldWarm(t, "nw depth=-1", m, memStore(t),
		epvf.Config{Prop: rangeprop.Config{MaxDepth: -1}})
	coldWarm(t, "nw exact", m, memStore(t),
		epvf.Config{Prop: rangeprop.Config{ExactAddress: true}})
}

// TestRandomProgramsBitIdentical is the randomized half of the tentpole
// property, including section reuse ACROSS programs: all programs share
// one store, so a later program whose helper happens to hash like an
// earlier one may legitimately reuse it — and must still be bit-exact.
func TestRandomProgramsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	programs := 8
	if testing.Short() {
		programs = 3
	}
	store := memStore(t)
	for p := 0; p < programs; p++ {
		src := bench.RandomProgram(rng)
		coldWarm(t, fmt.Sprintf("program %d", p), compile(t, src), store, epvf.Config{})
	}
}

// isolated is a fixture whose three workers touch only private state and
// emit their own outputs: no values flow between them, so editing one
// leaves the others' dynamic slices untouched.
const isolated = `
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

// editedF is isolated with one constant changed inside f only.
var editedF = strings.Replace(isolated, "i * 3 + 1", "i * 3 + 2", 1)

// TestSingleFunctionEditRecomputesOneSection: after editing one isolated
// function, only that function's section recomputes; the result is still
// bit-identical to scratch.
func TestSingleFunctionEditRecomputesOneSection(t *testing.T) {
	store := memStore(t)
	coldWarm(t, "base", compile(t, isolated), store, epvf.Config{})

	m2 := compile(t, editedF)
	want, _, err := epvf.AnalyzeModule(m2, epvf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := AnalyzeModule(m2, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnalysis(t, "edited", want, r.Analysis)
	if names := r.Stats.RecomputedNames(); len(names) != 1 || names[0] != "f" {
		t.Fatalf("recomputed sections = %v, want exactly [f]", names)
	}
}

// TestProtectReuse: protect.Apply edits functions in place; a protected
// module's analysis must still compose bit-identically, reusing the
// sections of functions the pass did not touch.
func TestProtectReuse(t *testing.T) {
	store := memStore(t)
	coldWarm(t, "base", compile(t, isolated), store, epvf.Config{})

	// Protect instructions in f only, on a fresh compile of the same
	// source (protect mutates in place).
	m2 := compile(t, isolated)
	base, _, err := epvf.AnalyzeModule(m2, epvf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var selected []*ir.Instr
	for in := range base.PerInstruction() {
		if protect.Eligible(in) && in.Func() != nil && in.Func().Name == "f" {
			selected = append(selected, in)
			if len(selected) == 2 {
				break
			}
		}
	}
	if len(selected) == 0 {
		t.Fatal("no eligible instruction in f")
	}
	if err := protect.Apply(m2, selected); err != nil {
		t.Fatal(err)
	}

	want, _, err := epvf.AnalyzeModule(m2, epvf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := AnalyzeModule(m2, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnalysis(t, "protected", want, r.Analysis)
	for _, s := range r.Stats.Sections {
		if s.Name == "g" && !s.Reused {
			t.Fatalf("section g recomputed after protecting f only: %+v", r.Stats.Sections)
		}
	}
}

// TestProfileRoundTrip fuzzes the binary profile codec.
func TestProfileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		pr := &sectionProfile{Accesses: rng.Int63n(1 << 30)}
		nNames := rng.Intn(4)
		for i := 0; i < nNames; i++ {
			pr.Names = append(pr.Names, fmt.Sprintf("fn%d", i))
		}
		if nNames > 0 {
			ord := int64(0)
			prev := 0
			for i := 0; i < rng.Intn(20); i++ {
				name := prev
				if rng.Intn(3) == 0 {
					name = rng.Intn(nNames)
				}
				if name != prev {
					prev, ord = name, 0
				}
				ord += rng.Int63n(100)
				pr.Entries = append(pr.Entries, profEntry{
					NameIdx: name, Ordinal: ord, Op: rng.Intn(3), Mask: rng.Uint64(),
				})
			}
		}
		got, err := decodeProfile(pr.encode())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(normalize(pr), normalize(got)) {
			t.Fatalf("trial %d: round trip mismatch\nin:  %+v\nout: %+v", trial, pr, got)
		}
	}
	if _, err := decodeProfile([]byte("garbage")); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
	if _, err := decodeProfile(profileMagic); err == nil {
		t.Fatal("decoding truncated profile succeeded")
	}
}

// normalize maps nil and empty slices together for DeepEqual.
func normalize(pr *sectionProfile) sectionProfile {
	out := *pr
	if len(out.Names) == 0 {
		out.Names = nil
	}
	if len(out.Entries) == 0 {
		out.Entries = nil
	}
	return out
}
