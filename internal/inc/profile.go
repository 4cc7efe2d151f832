package inc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

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
// deps must be sorted by name.
func profileKey(cfgKey, name string, deps []footprintDep) string {
	h := content.NewHasher("epvf-inc-profile-v1")
	h.Printf("%s\n%s\n", cfgKey, name)
	for _, d := range deps {
		h.Printf("dep %s %s\n", d.Name, d.Hash)
	}
	return h.Sum()
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

// buildProfile turns the seed walker's masks into a relative-coordinate
// profile and clears them. The name table is sorted by name and each
// name's entries by ordinal and operand, so equal results encode to equal
// bytes: Masks hands the masks out in event order, which within a section
// is ordinal order, and a counting pass buckets them by section in name
// order.
func (p *partition) buildProfile(accesses int64) *sectionProfile {
	owner := p.owner
	start, nameIdx := make([]int, len(p.sections)), make([]int, len(p.sections))
	p.walker.Masks(func(u trace.Use, _ uint64) { start[owner[u.Event]]++ })
	// start[si] turns from section si's entry count into the position of
	// its first entry.
	pr := &sectionProfile{Accesses: accesses}
	n := 0
	for _, si := range p.nameOrder {
		if c := start[si]; c > 0 {
			start[si] = n
			nameIdx[si] = len(pr.Names)
			pr.Names = append(pr.Names, p.sections[si].name)
			n += c
		}
	}
	pr.Entries = make([]profEntry, n)
	p.walker.Masks(func(u trace.Use, m uint64) {
		si := owner[u.Event]
		pr.Entries[start[si]] = profEntry{NameIdx: nameIdx[si], Ordinal: int64(p.ordinal[u.Event]), Op: u.Op, Mask: m}
		start[si]++
	})
	p.walker.Clear()
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
	secs := make([]*section, len(pr.Names))
	for _, e := range pr.Entries {
		if e.NameIdx < 0 || e.NameIdx >= len(pr.Names) {
			return fmt.Errorf("inc: profile references name %d of %d", e.NameIdx, len(pr.Names))
		}
		sec := secs[e.NameIdx]
		if sec == nil {
			if sec = p.byName[pr.Names[e.NameIdx]]; sec == nil {
				return fmt.Errorf("inc: profile references unknown section %q", pr.Names[e.NameIdx])
			}
			secs[e.NameIdx] = sec
		}
		if e.Ordinal < 0 || e.Ordinal >= int64(len(sec.events)) {
			return fmt.Errorf("inc: profile ordinal %d out of range for section %q (%d events)",
				e.Ordinal, sec.name, len(sec.events))
		}
		ev := int64(sec.events[e.Ordinal])
		if n := len(tr.OpDefsOf(ev)); e.Op < 0 || e.Op >= n {
			return fmt.Errorf("inc: profile operand %d out of range for event %d (%d operands)", e.Op, ev, n)
		}
	}
	for _, e := range pr.Entries {
		merged.AddUseMask(trace.Use{Event: int64(secs[e.NameIdx].events[e.Ordinal]), Op: e.Op}, e.Mask)
	}
	merged.AccessesAnalyzed += pr.Accesses
	return nil
}

// Binary profile framing: magic, then uvarints throughout. Strings are
// length-prefixed. Entry ordinals are delta-encoded against the previous
// entry of the same name (entries are sorted), keeping hot profiles small.
var profileMagic = []byte("epvf-incp1\n")

func (pr *sectionProfile) encode() []byte {
	// Size the buffer exactly, walking the fields as the loop below
	// writes them.
	size := len(profileMagic) + uvarintLen(uint64(pr.Accesses)) +
		uvarintLen(uint64(len(pr.Names))) + uvarintLen(uint64(len(pr.Entries)))
	for _, n := range pr.Names {
		size += uvarintLen(uint64(len(n))) + len(n)
	}
	prevName, prevOrd := -1, int64(0)
	for _, e := range pr.Entries {
		if e.NameIdx != prevName {
			prevName, prevOrd = e.NameIdx, 0
		}
		size += uvarintLen(uint64(e.NameIdx)) + uvarintLen(uint64(e.Ordinal-prevOrd)) +
			uvarintLen(uint64(e.Op)) + uvarintLen(e.Mask)
		prevOrd = e.Ordinal
	}

	buf := make([]byte, 0, size)
	buf = append(buf, profileMagic...)
	buf = binary.AppendUvarint(buf, uint64(pr.Accesses))
	buf = binary.AppendUvarint(buf, uint64(len(pr.Names)))
	for _, n := range pr.Names {
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(pr.Entries)))
	prevName, prevOrd = -1, 0
	for _, e := range pr.Entries {
		if e.NameIdx != prevName {
			prevName, prevOrd = e.NameIdx, 0
		}
		buf = binary.AppendUvarint(buf, uint64(e.NameIdx))
		buf = binary.AppendUvarint(buf, uint64(e.Ordinal-prevOrd)) // sorted: never negative
		prevOrd = e.Ordinal
		buf = binary.AppendUvarint(buf, uint64(e.Op))
		buf = binary.AppendUvarint(buf, e.Mask)
	}
	return buf
}

// uvarintLen returns the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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
