// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV and §V) on the simulated substrate: Table I–V and
// Figures 5–13, plus the ablations called out in DESIGN.md. Each experiment
// is a function from a Config to a result struct with a Render method, so
// the same code serves cmd/experiments, the root benchmark harness, and
// the tests.
package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
)

// Config scales the experiment effort. The zero value is unusable; use
// DefaultConfig (paper-scale campaigns) or QuickConfig (CI-scale).
type Config struct {
	// Runs is the number of fault injections per benchmark per campaign
	// (the paper performs over 3,000).
	Runs int
	// PrecisionSamples is the number of targeted injections per benchmark
	// for the precision study (the paper samples over 1,200 in total).
	PrecisionSamples int
	// Scale is the benchmark input scale for analysis campaigns.
	Scale int
	// CaseStudyScale is the larger input scale used for the §V
	// fault-injection evaluation.
	CaseStudyScale int
	// Seed drives all sampling.
	Seed int64
	// Jitter is the ASLR window (bytes) applied to fault-injection runs.
	Jitter uint64
	// Benchmarks is the suite to run; nil means bench.Paper10().
	Benchmarks []*bench.Benchmark
	// OverheadBudget is the §V performance budget (the paper reports 24%).
	OverheadBudget float64
	// Parallel is the campaign worker count (§VI-A parallelism); zero
	// runs serially. Results are identical either way.
	Parallel int
	// CampaignDir, when set, persists each benchmark's fault-injection
	// campaign into an internal/cache content-addressed store under
	// this directory (kind "campaign", keyed by the plan's content
	// hash) and replays it on later invocations — table2, fig5, fig9
	// and every other campaign consumer then reuse cached injections
	// instead of re-running them. The store layout is the same one
	// `epvf serve -cache-dir` uses, so a daemon pointed at this
	// directory serves the experiment campaigns too. Empty keeps
	// campaigns in memory. Results are identical either way.
	CampaignDir string
}

// DefaultConfig mirrors the paper's campaign sizes.
func DefaultConfig() Config {
	return Config{
		Runs:             3000,
		PrecisionSamples: 400,
		Scale:            1,
		CaseStudyScale:   2,
		Seed:             2016,
		Jitter:           64 * mem.PageSize,
		OverheadBudget:   0.24,
		Parallel:         runtime.NumCPU(),
	}
}

// QuickConfig is a reduced configuration for CI and benchmarks.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Runs = 150
	c.PrecisionSamples = 60
	c.CaseStudyScale = 1
	return c
}

func (c Config) benchmarks() []*bench.Benchmark {
	if c.Benchmarks != nil {
		return c.Benchmarks
	}
	return bench.Paper10()
}

// BenchResult caches everything the experiments need about one benchmark:
// the compiled module, the recorded golden run, the full ePVF analysis and
// the fault-injection campaign.
type BenchResult struct {
	Bench    *bench.Benchmark
	Module   *ir.Module
	Golden   *interp.Result
	Analysis *epvf.Analysis
	Campaign *campaign.Result
}

// Suite lazily computes and caches per-benchmark results so the individual
// experiments share the expensive work.
type Suite struct {
	Cfg Config

	mu      sync.Mutex
	results map[string]*BenchResult

	storeOnce sync.Once
	cstore    *cache.Store
	storeErr  error
}

// NewSuite creates a suite for the given configuration.
func NewSuite(cfg Config) *Suite {
	return &Suite{Cfg: cfg, results: make(map[string]*BenchResult)}
}

// Bench returns the cached result for one benchmark, computing it on first
// use.
func (s *Suite) Bench(b *bench.Benchmark) (*BenchResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.results[b.Name]; ok {
		return r, nil
	}
	m, err := b.Module(s.Cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("experiments: compiling %s: %w", b.Name, err)
	}
	analysis, golden, err := epvf.AnalyzeModule(m, epvf.Config{})
	if err != nil {
		return nil, fmt.Errorf("experiments: analyzing %s: %w", b.Name, err)
	}
	camp, err := s.runCampaign(b.Name, m, golden, fi.Config{Seed: s.Cfg.Seed, JitterWindow: s.Cfg.Jitter})
	if err != nil {
		return nil, fmt.Errorf("experiments: campaign on %s: %w", b.Name, err)
	}
	r := &BenchResult{Bench: b, Module: m, Golden: golden, Analysis: analysis, Campaign: camp}
	s.results[b.Name] = r
	return r, nil
}

// campaignKind is the cache kind experiment campaigns are stored under
// — the same one internal/serve daemons use, so the suite and a daemon
// pointed at the same directory share entries.
const campaignKind = "campaign"

// store lazily opens the content-addressed campaign store under
// CampaignDir.
func (s *Suite) store() (*cache.Store, error) {
	s.storeOnce.Do(func() {
		s.cstore, s.storeErr = cache.Open(cache.Config{Dir: s.Cfg.CampaignDir})
	})
	return s.cstore, s.storeErr
}

// runCampaign drives one Cfg.Runs-run fault-injection campaign with the
// injection parameters icfg through the internal/campaign engine; name
// labels it in the plan and its work file. Every experiment campaign runs
// here. With CampaignDir set the campaign is durable: a cached log for the
// same plan (same module, trace and config, per the plan's content hash)
// is replayed instead of re-injecting, a freshly completed campaign is
// stored back, and an interrupted invocation leaves a work file the next
// one resumes from.
func (s *Suite) runCampaign(name string, m *ir.Module, golden *interp.Result, icfg fi.Config) (*campaign.Result, error) {
	plan, err := campaign.NewPlan(m, golden, campaign.PlanConfig{
		Benchmark: name,
		Runs:      s.Cfg.Runs,
		FI:        icfg,
	})
	if err != nil {
		return nil, err
	}
	opts := campaign.RunOptions{Workers: s.Cfg.Parallel}
	var store *cache.Store
	var workPath string
	cached := false
	if s.Cfg.CampaignDir != "" {
		if store, err = s.store(); err != nil {
			return nil, err
		}
		// The engine wants a JSONL log path; in-progress campaigns live
		// as work files and are promoted into the store on completion.
		workPath = filepath.Join(s.Cfg.CampaignDir, "work", fmt.Sprintf("%s-%s.jsonl", name, plan.ID))
		if err := os.MkdirAll(filepath.Dir(workPath), 0o755); err != nil {
			return nil, err
		}
		if _, err := os.Stat(workPath); os.IsNotExist(err) {
			if data, ok := store.Get(campaignKind, plan.ID); ok {
				if err := os.WriteFile(workPath, data, 0o644); err != nil {
					return nil, err
				}
				cached = true
			}
		}
		opts.LogPath = workPath
	}
	res, err := campaign.Run(context.Background(), m, golden, plan, opts)
	if err != nil {
		return nil, err
	}
	if store != nil && res.Complete {
		if !cached {
			data, err := os.ReadFile(workPath)
			if err != nil {
				return nil, err
			}
			if err := store.Put(campaignKind, plan.ID, data); err != nil {
				return nil, err
			}
		}
		os.Remove(workPath)
	}
	return res, nil
}

// ForEach runs fn over the configured benchmark suite in order.
func (s *Suite) ForEach(fn func(*BenchResult) error) error {
	for _, b := range s.Cfg.benchmarks() {
		r, err := s.Bench(b)
		if err != nil {
			return err
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// crashKindLabel maps exception kinds to the Table I/II abbreviations.
func crashKindLabel(k interp.ExcKind) string {
	switch k {
	case interp.ExcSegFault:
		return "SF"
	case interp.ExcAbort:
		return "A"
	case interp.ExcMisaligned:
		return "MMA"
	case interp.ExcArith:
		return "AE"
	default:
		return k.String()
	}
}
