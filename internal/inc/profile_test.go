package inc

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/bench"
	"repro/internal/ddg"
	"repro/internal/interp"
	"repro/internal/rangeprop"
	"repro/internal/trace"
)

// kernelPartition records the named kernel's golden trace and partitions
// it into hashed sections.
func kernelPartition(tb testing.TB, name string) (*trace.Trace, *partition) {
	tb.Helper()
	b, ok := bench.Get(name)
	if !ok {
		tb.Fatalf("no %s benchmark", name)
	}
	res, err := interp.Run(b.MustModule(1), interp.Config{Record: true})
	if err != nil {
		tb.Fatal(err)
	}
	tr := res.Trace
	aceMask := ddg.New(tr).ACEMask()
	p := sectionize(tr, aceMask)
	p.hashSections(tr, aceMask, rangeprop.Config{})
	return tr, p
}

// freshProfiles encodes every section's profile as a cold analysis stores
// it: one seed walker walks the sections in turn.
func freshProfiles(tr *trace.Trace, p *partition) [][]byte {
	var out [][]byte
	p.walker = rangeprop.NewSeedWalker(tr, rangeprop.Config{})
	for _, s := range p.sections {
		out = append(out, p.buildProfile(p.walker.Walk(s.seeds, nil)).encode())
	}
	return out
}

// TestProfileBytesGolden pins the encoded section profiles of one kernel:
// existing disk caches hold these bytes under unchanged keys, so any
// change to them would turn every cached section into a miss.
func TestProfileBytesGolden(t *testing.T) {
	tr, p := kernelPartition(t, "nw")
	h := sha256.New()
	for i, raw := range freshProfiles(tr, p) {
		h.Write([]byte(p.sections[i].name + "\n"))
		h.Write(raw)
	}
	const want = "8a0fc460c4f8f647d10d7ae9b23bc966edb10a143cf5e69c3d8ef4a20a7b3f26"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("nw section profiles encode to sha256 %s, want %s", got, want)
	}
}

// TestAddToRejectsOperandBeyondEvent: a profile entry naming an operand
// the event does not have is a corrupt profile, reported as an error
// (a cache miss) without touching the merged result.
func TestAddToRejectsOperandBeyondEvent(t *testing.T) {
	tr, p := kernelPartition(t, "nw")
	s := p.sections[0]
	ev := int64(s.events[0])
	pr := &sectionProfile{
		Accesses: 1,
		Names:    []string{s.name},
		Entries: []profEntry{
			{NameIdx: 0, Ordinal: 0, Op: 0, Mask: 1},
			{NameIdx: 0, Ordinal: 0, Op: trace.NumOperands(tr.Instr(ev)), Mask: 1},
		},
	}
	merged := rangeprop.NewResult(tr)
	if err := pr.addTo(tr, p, merged); err == nil {
		t.Fatal("addTo accepted an operand beyond the event's operand count")
	}
	assertUntouched(t, merged)
}

// assertUntouched fails unless r holds no mask and no access.
func assertUntouched(t *testing.T, r *rangeprop.Result) {
	t.Helper()
	if r.AccessesAnalyzed != 0 {
		t.Fatalf("rejected profile added %d accesses", r.AccessesAnalyzed)
	}
	r.EachUse(func(u trace.Use, m uint64) {
		t.Fatalf("rejected profile set mask %#x at %v", m, u)
	})
}

// FuzzDecodeProfile: decoding arbitrary bytes and composing whatever
// decodes into a real partition never panics, and a rejected profile
// leaves the merged result untouched.
func FuzzDecodeProfile(f *testing.F) {
	tr, p := kernelPartition(f, "nw")
	for _, raw := range freshProfiles(tr, p) {
		f.Add(raw)
	}
	f.Add([]byte("garbage"))
	f.Add(append([]byte(nil), profileMagic...))
	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := decodeProfile(data)
		if err != nil {
			return
		}
		merged := rangeprop.NewResult(tr)
		if err := pr.addTo(tr, p, merged); err != nil {
			assertUntouched(t, merged)
		}
	})
}
