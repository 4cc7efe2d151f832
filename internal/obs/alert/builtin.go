package alert

import (
	"fmt"
	"time"
)

// Built-in rules. Each constructor returns a Rule wired to the metric
// names the subsystems actually publish. Only the stall windows and the
// predicted SDC rate vary per deployment; every other threshold is
// fixed here.

// CampaignStall fires when an active campaign executes no runs for the
// window: Delta(epvf_campaign_runs_executed_total) < 1 while the
// epvf_campaign_active gauge says a run loop is in flight.
func CampaignStall(window time.Duration) Rule {
	if window <= 0 {
		window = 10 * time.Second
	}
	return Rule{
		Name:      "campaign_stall",
		Desc:      fmt.Sprintf("no injections executed for %v while a campaign is active", window),
		Signal:    Signal{Kind: Delta, Num: []Selector{{Metric: "epvf_campaign_runs_executed_total"}}, Window: window},
		Op:        Below,
		Threshold: 1,
		Clear:     1,
		ActiveWhen: &Cond{
			Signal:    Signal{Kind: Value, Num: []Selector{{Metric: "epvf_campaign_active"}}},
			Op:        Above,
			Threshold: 0.5,
		},
	}
}

// CoordinatorStall fires when a dist coordinator with pending shards
// merges no runs for the window — the fleet is leased out but nothing
// is coming back.
func CoordinatorStall(window time.Duration) Rule {
	if window <= 0 {
		window = 15 * time.Second
	}
	return Rule{
		Name:      "coordinator_stall",
		Desc:      fmt.Sprintf("no worker results merged for %v with shards pending", window),
		Signal:    Signal{Kind: Delta, Num: []Selector{{Metric: "epvf_dist_runs_merged_total"}}, Window: window},
		Op:        Below,
		Threshold: 1,
		Clear:     1,
		ActiveWhen: &Cond{
			Signal:    Signal{Kind: Value, Num: []Selector{{Metric: "epvf_dist_shards_pending"}}},
			Op:        Above,
			Threshold: 0.5,
		},
	}
}

// WorkerLoss fires when a coordinator with pending shards has no live
// workers for 5 s.
func WorkerLoss() Rule {
	return Rule{
		Name:      "worker_loss",
		Desc:      "dist coordinator has pending shards but zero live workers",
		Signal:    Signal{Kind: Value, Num: []Selector{{Metric: "epvf_dist_workers"}}},
		Op:        Below,
		Threshold: 0.5,
		Clear:     0.5,
		For:       5 * time.Second,
		ActiveWhen: &Cond{
			Signal:    Signal{Kind: Value, Num: []Selector{{Metric: "epvf_dist_shards_pending"}}},
			Op:        Above,
			Threshold: 0.5,
		},
	}
}

// SDCSpike fires when the measured SDC rate exceeds twice the
// ePVF-predicted rate (hysteresis: resolves once back under the
// prediction itself), after at least 200 completed injections. The
// predicted rate comes from the attr ledger / analysis (a.EPVF()).
func SDCSpike(predicted float64) Rule {
	return Rule{
		Name: "sdc_rate_spike",
		Desc: fmt.Sprintf("measured SDC rate above 2x the ePVF-predicted %.4g", predicted),
		Signal: Signal{Kind: Ratio,
			Num: []Selector{{Metric: "epvf_campaign_runs_total", Labels: []string{"outcome", "sdc"}}},
			Den: []Selector{{Metric: "epvf_campaign_runs_total"}}},
		Op:        Above,
		Threshold: predicted * 2,
		Clear:     predicted,
		MinDenom:  200,
	}
}

// CacheHitCollapse fires when the overall result-cache hit ratio drops
// below 0.2 after at least 100 lookups.
func CacheHitCollapse() Rule {
	const floor = 0.2
	hits := Selector{Metric: "epvf_cache_hits_total"}
	misses := Selector{Metric: "epvf_cache_misses_total"}
	return Rule{
		Name:      "cache_hit_collapse",
		Desc:      fmt.Sprintf("result-cache hit ratio below %.2g", floor),
		Signal:    Signal{Kind: Ratio, Num: []Selector{hits}, Den: []Selector{hits, misses}},
		Op:        Below,
		Threshold: floor,
		Clear:     floor * 1.25,
		MinDenom:  100,
	}
}

// InjectionP99 fires when the p99 injection latency exceeds 250 ms,
// after at least 100 recorded injections.
func InjectionP99() Rule {
	const limit = 250 * time.Millisecond
	return Rule{
		Name:      "injection_p99_latency",
		Desc:      fmt.Sprintf("injection p99 latency above %v", limit),
		Signal:    Signal{Kind: Quantile, Num: []Selector{{Metric: "epvf_injection_latency_seconds"}}, Q: 0.99},
		Op:        Above,
		Threshold: limit.Seconds(),
		Clear:     limit.Seconds() * 0.8,
		MinDenom:  100,
	}
}

// BuiltinConfig tunes the default rule set.
type BuiltinConfig struct {
	StallWindow  time.Duration // campaign/coordinator stall window
	PredictedSDC float64       // ePVF-predicted SDC rate (0 disables the spike rule)
}

// Builtins returns the default rule set the dashboard mounts.
func Builtins(cfg BuiltinConfig) []Rule {
	rules := []Rule{
		CampaignStall(cfg.StallWindow),
		CoordinatorStall(cfg.StallWindow * 3 / 2),
		WorkerLoss(),
		CacheHitCollapse(),
		InjectionP99(),
	}
	if cfg.PredictedSDC > 0 {
		rules = append(rules, SDCSpike(cfg.PredictedSDC))
	}
	return rules
}
