package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// Default alert rule packs for the three scenario families. Each pack
// is plain data over series the scenario already records, evaluated by
// the tsdb alert engine after every scrape — attaching one changes
// nothing about the simulation, it only adds queryable alert state
// (alert:state series, alert_* counters, /api/alerts, the -alerts
// artifact). Thresholds are tuned to the scenario defaults: quiet in
// healthy runs, firing under the stresses each scenario manufactures.

// AutoscaleAlertRules is the serving-cell pack.
//
// slo-burn-page is the multi-window multi-burn-rate page condition
// (Google SRE style): the burn signal must breach over BOTH a short
// window (reactive — SLOWindow/5) and the full SLO window (sustained —
// a single bad batch can't page) before the alert fires. During the
// scenario's 3× burst the short and long averages both cross 1 until
// the autoscaler's scale-out lands, then the short window clears first
// and the alert resolves — the acceptance test pins that sequence.
func AutoscaleAlertRules(cfg AutoscaleConfig) []tsdb.AlertRule {
	cfg = cfg.WithDefaults()
	short := cfg.SLOWindow / 5
	if short <= 0 {
		short = time.Minute
	}
	return []tsdb.AlertRule{
		{
			Name:      "slo-burn-page",
			Labels:    []obs.Label{obs.L("app", "infer")},
			Series:    "slo:burn",
			Fn:        "avg",
			Windows:   []time.Duration{short, cfg.SLOWindow},
			Threshold: 1,
		},
		{
			// Sustained admission-control shedding: the cell is refusing
			// a meaningful share of traffic, not just clipping a spike.
			Name:      "shed-rate",
			Series:    "autoscale_shed_probability",
			Fn:        "max",
			Windows:   []time.Duration{time.Minute},
			Threshold: 0.5,
			For:       30 * time.Second,
		},
		{
			// Oscillating block count: more than four direction changes
			// inside ten minutes means the controller is thrashing
			// against its own cold starts rather than tracking load.
			Name:       "scale-flap",
			Series:     "autoscale_blocks",
			Fn:         "flips",
			Windows:    []time.Duration{10 * time.Minute},
			Threshold:  5,
			KeepFiring: time.Minute,
		},
	}
}

// FleetAlertRules is the placement-plane pack: a sustained
// fragmentation ceiling (capacity exists but is unusable — the paper's
// motivating waste mode) and a nonzero rejected-placement rate
// (demand arriving that the packer cannot place anywhere).
func FleetAlertRules() []tsdb.AlertRule {
	return []tsdb.AlertRule{
		{
			Name:      "frag-ceiling",
			Series:    "fleet_fragmentation",
			Fn:        "avg",
			Windows:   []time.Duration{30 * time.Second},
			Threshold: 0.55,
			For:       30 * time.Second,
		},
		{
			Name:         "unplaced-demand",
			Series:       "fleet_place_total",
			SeriesLabels: []obs.Label{obs.L("status", "rejected")},
			Fn:           "rate",
			Windows:      []time.Duration{time.Minute},
			Threshold:    0.05,
			KeepFiring:   30 * time.Second,
		},
	}
}

// ScaleAlertRules is the throughput pack for one shard of the sharded
// open-loop scenario: completions stalling below one task per second
// for ten straight seconds mid-run means the shard's pipeline wedged
// (rate needs two window samples, so the run's warm-up cannot trip it).
func ScaleAlertRules() []tsdb.AlertRule {
	return []tsdb.AlertRule{
		{
			Name:         "completion-stall",
			Series:       "faas_tasks_completed_total",
			SeriesLabels: []obs.Label{obs.L("app", "micro"), obs.L("status", "done")},
			Fn:           "rate",
			Windows:      []time.Duration{10 * time.Second},
			Threshold:    1,
			Below:        true,
			For:          10 * time.Second,
		},
	}
}
