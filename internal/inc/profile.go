package inc

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/content"
	"repro/internal/rangeprop"
	"repro/internal/trace"
)

// Cache kinds of the incremental layer. A section's result is stored in
// two steps, ccache-style:
//
//	manifest:  (cfg, section name, slice hash)        → known footprints
//	profile:   (cfg, section name, footprint hashes)  → crash-bit profile
//
// The manifest answers "last time this exact section was analyzed, which
// other sections did its walks read, and at what content?"; the profile is
// keyed by those dependencies' hashes, so it can only be returned when
// every section the walks traversed is bit-identical to when the profile
// was computed — which makes reuse exact, not approximate.
const (
	KindManifest = "inc-manifest-v1"
	KindSection  = "inc-section-v1"
)

// footprintDep records one section a cached walk depends on, at the slice
// hash it had when the walk ran.
type footprintDep struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
}

// manifest lists every footprint under which a (cfg, name, slice hash)
// section has been analyzed. Usually one entry; more appear when the same
// section content links into differing surroundings across modules.
type manifest struct {
	Entries [][]footprintDep `json:"entries"`
}

// manifestKey addresses the manifest of one section under one analysis
// configuration.
func manifestKey(cfgKey, name, sliceHash string) string {
	h := content.NewHasher("epvf-inc-manifest-v1")
	h.Printf("%s\n%s\n%s\n", cfgKey, name, sliceHash)
	return h.Sum()
}

// profileKey addresses the profile computed under one exact footprint.
// deps must be sorted by name (sortFootprint).
func profileKey(cfgKey, name string, deps []footprintDep) string {
	h := content.NewHasher("epvf-inc-profile-v1")
	h.Printf("%s\n%s\n", cfgKey, name)
	for _, d := range deps {
		h.Printf("dep %s %s\n", d.Name, d.Hash)
	}
	return h.Sum()
}

func sortFootprint(deps []footprintDep) {
	sort.Slice(deps, func(i, j int) bool { return deps[i].Name < deps[j].Name })
}

// profEntry is one crash-mask contribution in relative coordinates: bits
// of operand Op at the Ordinal-th event of section NameIdx (an index into
// sectionProfile.Names).
type profEntry struct {
	NameIdx int
	Ordinal int64
	Op      int
	Mask    uint64
}

// sectionProfile is the cacheable model result of one section's walks:
// the crash masks they derived (anywhere in the trace — walks cross
// section boundaries) and the number of seeds whose boundary resolved.
// Everything is function-relative, so the profile composes into any trace
// whose matching sections carry the same slice hashes.
type sectionProfile struct {
	Accesses int64
	Names    []string
	Entries  []profEntry
}

// buildProfile converts a fresh AnalyzeSeeds result into its relative-
// coordinate profile. The name table and entries are sorted, so equal
// results encode to equal bytes.
func buildProfile(res *rangeprop.Result, p *partition) *sectionProfile {
	pr := &sectionProfile{Accesses: res.AccessesAnalyzed}
	used := make(map[int32]int)
	res.EachUse(func(u trace.Use, _ uint64) {
		used[p.owner[u.Event]] = 0
	})
	secs := make([]int32, 0, len(used))
	for si := range used {
		secs = append(secs, si)
	}
	sort.Slice(secs, func(i, j int) bool {
		return p.sections[secs[i]].name < p.sections[secs[j]].name
	})
	for i, si := range secs {
		used[si] = i
		pr.Names = append(pr.Names, p.sections[si].name)
	}
	res.EachUse(func(u trace.Use, m uint64) {
		pr.Entries = append(pr.Entries, profEntry{
			NameIdx: used[p.owner[u.Event]],
			Ordinal: int64(p.ordinal[u.Event]),
			Op:      u.Op,
			Mask:    m,
		})
	})
	sort.Slice(pr.Entries, func(i, j int) bool {
		a, b := pr.Entries[i], pr.Entries[j]
		if a.NameIdx != b.NameIdx {
			return a.NameIdx < b.NameIdx
		}
		if a.Ordinal != b.Ordinal {
			return a.Ordinal < b.Ordinal
		}
		return a.Op < b.Op
	})
	return pr
}

// addTo translates the profile into the given trace's global coordinates
// and unions it into merged. An unknown section name, an out-of-range
// ordinal or an operand beyond its event's recorded operands means the
// profile does not belong to this partition (a keying bug, or a corrupt
// entry the cache checksum missed) — the caller treats the error as a miss
// and recomputes. Every entry is checked before any is applied, so a
// rejected profile leaves merged untouched.
func (pr *sectionProfile) addTo(tr *trace.Trace, p *partition, merged *rangeprop.Result) error {
	uses := make([]trace.Use, len(pr.Entries))
	for i, e := range pr.Entries {
		if e.NameIdx < 0 || e.NameIdx >= len(pr.Names) {
			return fmt.Errorf("inc: profile references name %d of %d", e.NameIdx, len(pr.Names))
		}
		sec := p.byName[pr.Names[e.NameIdx]]
		if sec == nil {
			return fmt.Errorf("inc: profile references unknown section %q", pr.Names[e.NameIdx])
		}
		if e.Ordinal < 0 || e.Ordinal >= int64(len(sec.events)) {
			return fmt.Errorf("inc: profile ordinal %d out of range for section %q (%d events)",
				e.Ordinal, sec.name, len(sec.events))
		}
		ev := sec.events[e.Ordinal]
		if n := len(tr.OpsOf(ev)); e.Op < 0 || e.Op >= n {
			return fmt.Errorf("inc: profile operand %d out of range for event %d (%d operands)", e.Op, ev, n)
		}
		uses[i] = trace.Use{Event: ev, Op: e.Op}
	}
	for i, e := range pr.Entries {
		merged.AddUseMask(uses[i], e.Mask)
	}
	merged.AccessesAnalyzed += pr.Accesses
	return nil
}

// Binary profile framing: magic, then uvarints throughout. Strings are
// length-prefixed. Entry ordinals are delta-encoded against the previous
// entry of the same name (entries are sorted), keeping hot profiles small.
var profileMagic = []byte("epvf-incp1\n")

func (pr *sectionProfile) encode() []byte {
	buf := append([]byte(nil), profileMagic...)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putUvarint(uint64(pr.Accesses))
	putUvarint(uint64(len(pr.Names)))
	for _, n := range pr.Names {
		putUvarint(uint64(len(n)))
		buf = append(buf, n...)
	}
	putUvarint(uint64(len(pr.Entries)))
	prevName, prevOrd := -1, int64(0)
	for _, e := range pr.Entries {
		if e.NameIdx != prevName {
			prevName, prevOrd = e.NameIdx, 0
		}
		putUvarint(uint64(e.NameIdx))
		putUvarint(uint64(e.Ordinal - prevOrd)) // sorted: never negative
		prevOrd = e.Ordinal
		putUvarint(uint64(e.Op))
		putUvarint(e.Mask)
	}
	return buf
}

func decodeProfile(data []byte) (*sectionProfile, error) {
	if len(data) < len(profileMagic) || string(data[:len(profileMagic)]) != string(profileMagic) {
		return nil, fmt.Errorf("inc: profile missing magic")
	}
	data = data[len(profileMagic):]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("inc: truncated profile varint")
		}
		data = data[n:]
		return v, nil
	}
	pr := &sectionProfile{}
	v, err := next()
	if err != nil {
		return nil, err
	}
	pr.Accesses = int64(v)
	nNames, err := next()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nNames; i++ {
		l, err := next()
		if err != nil {
			return nil, err
		}
		if l > uint64(len(data)) {
			return nil, fmt.Errorf("inc: truncated profile name")
		}
		pr.Names = append(pr.Names, string(data[:l]))
		data = data[l:]
	}
	nEntries, err := next()
	if err != nil {
		return nil, err
	}
	prevName, prevOrd := -1, int64(0)
	for i := uint64(0); i < nEntries; i++ {
		var e profEntry
		if v, err = next(); err != nil {
			return nil, err
		}
		e.NameIdx = int(v)
		if e.NameIdx != prevName {
			prevName, prevOrd = e.NameIdx, 0
		}
		if v, err = next(); err != nil {
			return nil, err
		}
		e.Ordinal = prevOrd + int64(v)
		prevOrd = e.Ordinal
		if v, err = next(); err != nil {
			return nil, err
		}
		e.Op = int(v)
		if e.Mask, err = next(); err != nil {
			return nil, err
		}
		pr.Entries = append(pr.Entries, e)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("inc: %d trailing profile bytes", len(data))
	}
	return pr, nil
}
