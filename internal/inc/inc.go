// Package inc is the incremental + compositional ePVF layer (the
// FastFlip direction): it splits a recorded execution into per-function
// sections, caches each section's propagation-model profile in
// internal/cache under a content key derived from the section's dynamic
// slice, and composes cached + fresh profiles into an epvf.Analysis whose
// raw integer numerators are bit-identical to a from-scratch run.
//
// Why composition is exact: the propagation model is a union of
// independent backward walks, one per ACE memory access (the existing
// parallel path in internal/rangeprop already relies on this — crash
// masks merge by union). Partitioning the walks by the function owning
// the seeding access therefore changes nothing about the result. What a
// cached walk result additionally needs is a guarantee that re-running
// the walk today would read exactly the bytes it read when it was
// computed; the section slice hash (see section.go) and the recorded
// footprint (see profile.go) provide it: a profile is only reused when
// every section its walks traversed hashes identically now, which makes
// every step of every walk retrace bit-identically.
//
// The profile (epvf.Profile) and the DDG/ACE construction re-run on every
// analysis — they are the cheap near-linear part, and re-running them is
// what lets the layer detect which sections changed at all. Only the
// models stage (the expensive walks, 55–97% of analysis time depending
// on depth) is cached and composed.
package inc

import (
	"encoding/json"
	"time"

	"repro/internal/cache"
	"repro/internal/ddg"
	"repro/internal/epvf"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/rangeprop"
	"repro/internal/trace"
)

// Config controls an incremental analysis.
type Config struct {
	// Store holds the section manifests and profiles. Required.
	Store *cache.Store
	// Epvf is the underlying analysis configuration. Prop.MaxDepth and
	// Prop.ExactAddress participate in every cache key; Prop.Parallel
	// only affects fresh walks.
	Epvf epvf.Config
	// Registry receives the epvf_inc_* metrics; nil falls back to the
	// process default at call time.
	Registry *obs.Registry
}

func (c *Config) reg() *obs.Registry {
	if c.Registry != nil {
		return c.Registry
	}
	return obs.Default()
}

// cfgKey renders the analysis parameters every section key must bind:
// a profile computed at one walk depth or address oracle cannot answer
// for another.
func (c *Config) cfgKey() string {
	d := c.Epvf.Prop.MaxDepth
	if d == 0 {
		d = rangeprop.DefaultMaxDepth
	}
	if d < 0 {
		d = -1
	}
	exact := 0
	if c.Epvf.Prop.ExactAddress {
		exact = 1
	}
	return "depth=" + itoa(int64(d)) + " exact=" + itoa(int64(exact))
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// SectionInfo reports one section's disposition in an analysis.
type SectionInfo struct {
	Name   string `json:"name"`
	Hash   string `json:"hash"`
	Events int64  `json:"events"`
	Seeds  int    `json:"seeds"`
	Reused bool   `json:"reused"`
}

// Stats is the incremental accounting of one analysis.
type Stats struct {
	// Sections lists every section in trace-appearance order.
	Sections []SectionInfo
	// Reused and Recomputed count cache hits and fresh walks.
	Reused, Recomputed int
	// SectionizeTime covers partitioning + slice hashing; ModelsTime the
	// fresh walks; ComposeTime the profile translation + merge +
	// finalize.
	SectionizeTime, ModelsTime, ComposeTime time.Duration
}

// RecomputedNames returns the names of the sections whose walks ran
// fresh, in trace-appearance order.
func (st *Stats) RecomputedNames() []string {
	var out []string
	for _, s := range st.Sections {
		if !s.Reused {
			out = append(out, s.Name)
		}
	}
	return out
}

// Result is an incremental analysis: the composed whole-module answer
// plus the per-section accounting.
type Result struct {
	Analysis *epvf.Analysis
	// DynInstrs is the golden run's dynamic instruction count (the
	// trace length for AnalyzeTrace).
	DynInstrs int64
	Stats     Stats
}

// AnalyzeModule profiles the module and composes its analysis from
// cached + fresh section profiles. The composed numerators equal
// epvf.AnalyzeModule's bit-for-bit.
func AnalyzeModule(m *ir.Module, cfg Config) (*Result, error) {
	t0 := time.Now()
	res, err := epvf.Profile(m, cfg.Epvf.Interp)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(t0)
	r, err := AnalyzeTrace(res.Trace, cfg)
	if err != nil {
		return nil, err
	}
	r.DynInstrs = res.DynInstrs
	r.Analysis.Timing.GraphBuild += buildTime
	return r, nil
}

// AnalyzeTrace composes the analysis of an already-recorded trace from
// cached + fresh section profiles.
func AnalyzeTrace(tr *trace.Trace, cfg Config) (*Result, error) {
	root := obs.StartSpan("epvf_inc_analyze")
	defer root.End()

	t0 := time.Now()
	g := ddg.New(tr)
	aceMask := g.ACEMask()
	graphTime := time.Since(t0)

	t1 := time.Now()
	p := sectionize(tr, aceMask)
	p.hashSections(tr, aceMask, cfg.Epvf.Prop)
	r := &Result{DynInstrs: tr.NumEvents()}
	r.Stats.SectionizeTime = time.Since(t1)

	cfgKey := cfg.cfgKey()
	merged := rangeprop.NewResult(tr)
	var profiles []*sectionProfile
	for _, s := range p.sections {
		info := SectionInfo{Name: s.name, Hash: s.hash, Events: int64(len(s.events)), Seeds: len(s.seeds)}
		pr, ok := cfg.loadSection(p, s, cfgKey)
		if !ok {
			tw := time.Now()
			pr = cfg.computeSection(tr, p, s, cfgKey)
			r.Stats.ModelsTime += time.Since(tw)
			r.Stats.Recomputed++
		} else {
			info.Reused = true
			r.Stats.Reused++
		}
		profiles = append(profiles, pr)
		r.Stats.Sections = append(r.Stats.Sections, info)
	}

	t2 := time.Now()
	for i, pr := range profiles {
		if err := pr.addTo(tr, p, merged); err != nil {
			// A cached profile that does not fit this partition is a
			// corrupt or mis-keyed entry; recompute the section fresh
			// rather than fail the analysis. (Fresh profiles fit by
			// construction.)
			s := p.sections[i]
			fresh := cfg.computeSection(tr, p, s, cfgKey)
			if err := fresh.addTo(tr, p, merged); err != nil {
				root.Add("error", 1)
				return nil, err
			}
			r.Stats.Sections[i].Reused = false
			r.Stats.Reused--
			r.Stats.Recomputed++
		}
	}
	merged.Finalize(tr)
	r.Stats.ComposeTime = time.Since(t2)

	a := epvf.Compose(tr, g, aceMask, merged)
	a.Timing.GraphBuild = graphTime
	a.Timing.Models = r.Stats.SectionizeTime + r.Stats.ModelsTime + r.Stats.ComposeTime
	r.Analysis = a

	root.Add("sections", int64(len(p.sections)))
	root.Add("reused", int64(r.Stats.Reused))
	if reg := cfg.reg(); reg != nil {
		reg.Counter("epvf_inc_analyses_total").Inc()
		reg.Counter("epvf_inc_sections_total").Add(int64(len(p.sections)))
		reg.Counter("epvf_inc_sections_reused_total").Add(int64(r.Stats.Reused))
		reg.Counter("epvf_inc_sections_recomputed_total").Add(int64(r.Stats.Recomputed))
		reg.Histogram("epvf_inc_compose_seconds", obs.LatencyBuckets).
			Observe(r.Stats.ComposeTime.Seconds())
	}
	return r, nil
}

// loadSection looks a section's profile up through the manifest: find a
// recorded footprint whose every dependency hashes the same today, then
// fetch the profile keyed by that exact footprint.
func (cfg *Config) loadSection(p *partition, s *section, cfgKey string) (*sectionProfile, bool) {
	raw, ok := cfg.Store.Get(KindManifest, manifestKey(cfgKey, s.name, s.hash))
	if !ok {
		return nil, false
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, false
	}
	for _, deps := range mf.Entries {
		if !depsMatch(p, deps) {
			continue
		}
		praw, ok := cfg.Store.Get(KindSection, profileKey(cfgKey, s.name, deps))
		if !ok {
			continue
		}
		pr, err := decodeProfile(praw)
		if err != nil {
			continue
		}
		return pr, true
	}
	return nil, false
}

// depsMatch reports whether every recorded dependency exists in the
// current partition at the recorded slice hash — the reuse soundness
// gate.
func depsMatch(p *partition, deps []footprintDep) bool {
	for _, d := range deps {
		sec := p.byName[d.Name]
		if sec == nil || sec.hash != d.Hash {
			return false
		}
	}
	return true
}

// computeSection runs the section's walks fresh, recording the footprint,
// and stores the manifest + profile for next time.
func (cfg *Config) computeSection(tr *trace.Trace, p *partition, s *section, cfgKey string) *sectionProfile {
	touched := make(map[int32]bool)
	touched[int32(s.index)] = true // the seeds themselves live here
	if p.ops == nil {
		tab := rangeprop.NewOperandTable(tr)
		p.ops = &tab
	}
	res := rangeprop.AnalyzeSeeds(tr, *p.ops, cfg.Epvf.Prop, s.seeds, func(ev int64) {
		touched[p.owner[ev]] = true
	})
	pr := buildProfile(res, p)

	deps := make([]footprintDep, 0, len(touched))
	for si := range touched {
		sec := p.sections[si]
		deps = append(deps, footprintDep{Name: sec.name, Hash: sec.hash})
	}
	sortFootprint(deps)
	cfg.Store.Put(KindSection, profileKey(cfgKey, s.name, deps), pr.encode())

	// Append the footprint to the manifest. The read-modify-write is not
	// atomic across processes; a lost update costs a future cache
	// opportunity, never correctness (profiles stand alone under their
	// own keys).
	mk := manifestKey(cfgKey, s.name, s.hash)
	var mf manifest
	if raw, ok := cfg.Store.Get(KindManifest, mk); ok {
		json.Unmarshal(raw, &mf)
	}
	for _, e := range mf.Entries {
		if depsEqual(e, deps) {
			return pr
		}
	}
	mf.Entries = append(mf.Entries, deps)
	if raw, err := json.Marshal(&mf); err == nil {
		cfg.Store.Put(KindManifest, mk, raw)
	}
	return pr
}

func depsEqual(a, b []footprintDep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
