package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/epvf"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/trace"
)

const kernel = `
void main() {
  long *a = malloc(24 * 8);
  int i;
  for (i = 0; i < 24; i = i + 1) { a[i] = i * 9; }
  long s = 0;
  for (i = 0; i < 24; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}
`

func recorded(t testing.TB) *trace.Trace {
	t.Helper()
	return record(t, kernel)
}

// record compiles src as module "serial" and records its golden trace.
func record(t testing.TB, src string) *trace.Trace {
	t.Helper()
	m, err := lang.Compile("serial", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// columns lists a trace's columns, for comparing two traces whole.
func columns(tr *trace.Trace) []any {
	return []any{tr.InstrID, tr.Result, tr.Acc, tr.OpBase, tr.OpDefs, tr.Imm,
		tr.Addr, tr.SP, tr.MemDef, tr.VMAVer}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := recorded(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Load against a fresh deterministic recompilation.
	m2, err := lang.Compile("serial", kernel)
	if err != nil {
		t.Fatal(err)
	}
	back, err := trace.Load(&buf, m2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(columns(back), columns(tr)) {
		t.Fatal("columns differ after round trip")
	}
	if !reflect.DeepEqual(back.Outputs, tr.Outputs) || !reflect.DeepEqual(back.Snapshots, tr.Snapshots) ||
		back.Layout != tr.Layout {
		t.Fatal("outputs, snapshots or layout differ after round trip")
	}
	// The reloaded trace analyzes identically.
	a1 := epvf.AnalyzeTrace(tr, epvf.Config{})
	a2 := epvf.AnalyzeTrace(back, epvf.Config{})
	if a1.PVF() != a2.PVF() || a1.EPVF() != a2.EPVF() ||
		a1.CrashResult.CrashBitCount != a2.CrashResult.CrashBitCount {
		t.Errorf("analysis differs on reloaded trace: PVF %v/%v ePVF %v/%v",
			a1.PVF(), a2.PVF(), a1.EPVF(), a2.EPVF())
	}
}

func TestLoadRejectsWrongModule(t *testing.T) {
	tr := recorded(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := lang.Compile("other", `void main() { output(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Load(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("Load accepted a trace from a different module")
	}
	// Same name, different body.
	sameName, err := lang.Compile("serial", `void main() { output(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Load(bytes.NewReader(buf.Bytes()), sameName); err == nil {
		t.Error("Load accepted a trace against a structurally different module")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	m, err := lang.Compile("serial", kernel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Load(bytes.NewReader([]byte("not a trace")), m); err == nil {
		t.Error("Load accepted garbage")
	}
}

// TestLoadRejectsOtherVersions: a saved trace of any format version but
// the current one is refused with an error naming the version.
func TestLoadRejectsOtherVersions(t *testing.T) {
	m, err := lang.Compile("serial", kernel)
	if err != nil {
		t.Fatal(err)
	}
	data := saved(t, kernel, nil)
	at := len("epvf-trace\n") // the version byte follows the magic
	for _, v := range []byte{0, 1, 3, 99} {
		bad := bytes.Clone(data)
		bad[at] = v
		if _, err := trace.Load(bytes.NewReader(bad), m); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("version %d: Load error %v, want a version error", v, err)
		}
	}
}

// recordKernel profiles one built-in kernel at scale 1.
func recordKernel(t *testing.T, b *bench.Benchmark) *trace.Trace {
	t.Helper()
	res, err := epvf.Profile(b.MustModule(1), interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func saveBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveDeterministic: saving one recorded trace twice writes the same
// bytes, for every kernel (VMA snapshots are written in version order,
// not map order).
func TestSaveDeterministic(t *testing.T) {
	for _, b := range bench.All() {
		tr := recordKernel(t, b)
		if !bytes.Equal(saveBytes(t, tr), saveBytes(t, tr)) {
			t.Errorf("%s: two saves of one trace differ", b.Name)
		}
	}
}

// savedSHA256 pins the saved bytes of every kernel's golden trace at
// scale 1: a change to the format, to the in-memory layout Save writes
// from, or to what the engines record, must update it on purpose (and
// bump the format version when old files no longer load).
var savedSHA256 = map[string]string{
	"lulesh":         luleshSavedSHA256,
	"particlefilter": "317c47f1e0bb3d6bb6c340373300fb5d8f0ae106f47f96f1657972b258346027",
	"srad":           "23e2f7110b7e21ec409ff285df42f3678c5f16fd4835986d681e916f1509eb1d",
	"nw":             "b1a796d1100803bab582ff35d1a51de9f841e4f40223c0ca5eb778a5f21ee074",
	"hotspot":        "67a462e5fc2e82f95665bd68722c155fd9a15c3b47f293bfda2abd03cdbdd579",
	"lavamd":         "716ce2ac1af6543f8afc03c369d9fe7b920686f5939d14b661702c1c0ed8024a",
	"bfs":            "b9aa1706a4ba181708063e685c50f9f140dea70705eeb0f88c2b7f033aee9d3b",
	"lud":            "83da90868dede831bc735b45328b03ce318065b3b3a3926d76b59c30167dd95b",
	"pathfinder":     "e9415ff9b9ffd4cb82c6fce305f3cb94188858a46c408ee1ece81f51444a0d99",
	"mm":             "d79a3dd58316c93e990b5447d0f7b1be24c9fbbab2b61ae4bc01b6c11f67b9c3",
	"kmeans":         "7cc8989dd70678fbbc3518bdf56918072553f95100b8dc4fa64617fcc0032ea8",
}

const luleshSavedSHA256 = "5ce877f54ef7a6a7ed70039a67c9580aa458629eab275bfa16bb98e138a5af66"

func TestSavedBytesPinned(t *testing.T) {
	for _, b := range bench.All() {
		want, ok := savedSHA256[b.Name]
		if !ok {
			t.Errorf("%s: no pinned saved-trace sha256", b.Name)
			continue
		}
		sum := sha256.Sum256(saveBytes(t, recordKernel(t, b)))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s saved trace sha256 = %s, want %s", b.Name, got, want)
		}
	}
}
