package bench

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
)

func TestSuiteCompiles(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m, err := b.Module(1)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if err := ir.Verify(m); err != nil {
				t.Fatalf("verify: %v", err)
			}
		})
	}
}

func TestSuiteGoldenRuns(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m := b.MustModule(1)
			res, err := interp.Run(m, interp.Config{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Exception != nil {
				t.Fatalf("golden run raised %v", res.Exception)
			}
			if res.Hang {
				t.Fatal("golden run hung")
			}
			if len(res.Outputs) == 0 {
				t.Fatal("no outputs")
			}
			if res.DynInstrs < 5000 {
				t.Errorf("suspiciously short run: %d dynamic instructions", res.DynInstrs)
			}
			if res.DynInstrs > 2_000_000 {
				t.Errorf("run too long for the test suite: %d dynamic instructions", res.DynInstrs)
			}
			t.Logf("%s: %d dyn instrs, %d outputs", b.Name, res.DynInstrs, len(res.Outputs))
		})
	}
}

func TestGoldenDeterminism(t *testing.T) {
	b, ok := Get("pathfinder")
	if !ok {
		t.Fatal("pathfinder missing")
	}
	m := b.MustModule(1)
	r1, err := interp.Run(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := interp.Run(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.DynInstrs != r2.DynInstrs || len(r1.Outputs) != len(r2.Outputs) {
		t.Fatal("golden runs diverge")
	}
	for i := range r1.Outputs {
		if r1.Outputs[i].Bits != r2.Outputs[i].Bits {
			t.Fatal("golden outputs diverge")
		}
	}
}

func TestScaleGrowsWork(t *testing.T) {
	b, _ := Get("mm")
	small, err := interp.Run(b.MustModule(1), interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := interp.Run(b.MustModule(2), interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if big.DynInstrs <= small.DynInstrs*2 {
		t.Errorf("scale 2 (%d instrs) not substantially larger than scale 1 (%d)",
			big.DynInstrs, small.DynInstrs)
	}
	if big.Exception != nil || big.Hang {
		t.Error("scaled run failed")
	}
}

func TestRegistry(t *testing.T) {
	if len(All()) != 11 {
		t.Errorf("suite has %d entries, want 11", len(All()))
	}
	if len(Paper10()) != 10 {
		t.Errorf("Paper10 has %d entries", len(Paper10()))
	}
	for _, b := range Paper10() {
		if b.Name == "kmeans" {
			t.Error("kmeans must not be in the paper-10 set")
		}
	}
	if len(SDCProne5()) != 5 {
		t.Errorf("SDCProne5 has %d entries", len(SDCProne5()))
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get accepted an unknown name")
	}
	for _, b := range All() {
		if b.LOC() < 20 {
			t.Errorf("%s: LOC() = %d, implausibly small", b.Name, b.LOC())
		}
		if b.Domain == "" {
			t.Errorf("%s: missing domain", b.Name)
		}
	}
}

func TestSuiteRecordsTraces(t *testing.T) {
	// Every benchmark must produce a DDG-ready trace: outputs with defs,
	// memory accesses with snapshots.
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, err := interp.Run(b.MustModule(1), interp.Config{Record: true})
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Trace
			withDef := 0
			for _, o := range tr.Outputs {
				if o.Def >= 0 {
					withDef++
				}
			}
			if withDef == 0 {
				t.Error("no output has a defining event")
			}
			mem := 0
			for i := range tr.NumEvents() {
				if tr.IsMemAccess(i) {
					mem++
					if tr.Snapshots[tr.Event(i).VMAVer] == nil {
						t.Fatal("memory access without VMA snapshot")
					}
				}
			}
			if mem == 0 {
				t.Error("no memory accesses recorded")
			}
		})
	}
}

func TestSuiteIRRoundTrip(t *testing.T) {
	// Print -> Parse -> Print is the identity on every benchmark, and the
	// reparsed module executes identically.
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m := b.MustModule(1)
			text := ir.Print(m)
			parsed, err := ir.Parse(text)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if ir.Print(parsed) != text {
				t.Fatal("textual round trip not stable")
			}
			want, err := interp.Run(m, interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := interp.Run(parsed, interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if want.DynInstrs != got.DynInstrs || len(want.Outputs) != len(got.Outputs) {
				t.Fatal("reparsed module executes differently")
			}
			for i := range want.Outputs {
				if want.Outputs[i].Bits != got.Outputs[i].Bits {
					t.Fatal("reparsed module produces different outputs")
				}
			}
		})
	}
}

// TestLoad pins what the CLIs' shared loader adds to Get: names in
// Table IV order, -bench and -src mutually exclusive, and an unknown name
// listing the suite. cmd/epvf's TestLoadModule* cover file inputs.
func TestLoad(t *testing.T) {
	names := Names()
	if len(names) != len(All()) || names[0] != "lulesh" || names[len(names)-1] != "kmeans" {
		t.Errorf("Names() = %v", names)
	}
	if _, err := Load("mm", "x.c", 1); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("both sources: err = %v", err)
	}
	if _, err := Load("nope", "", 1); err == nil || !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Errorf("unknown name: err = %v, want the suite listed", err)
	}
}
