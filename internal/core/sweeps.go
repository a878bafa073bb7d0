package core

import (
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/harness"
	"repro/internal/llm"
	"repro/internal/simgpu"
)

// SweepPoint is one measurement of Fig. 2: completion latency under
// an MPS SM budget.
type SweepPoint struct {
	Model   string
	Percent int
	SMs     int
	Latency time.Duration
}

// Fig2Result carries both model curves plus the CPU baselines the
// paper quotes (180 s and 360 s).
type Fig2Result struct {
	Points       []SweepPoint
	CPUBaselines map[string]time.Duration
}

// Fig2Sweep reproduces Fig. 2: 20-token completions of LLaMa-2-7B
// (fp32, one A100) and LLaMa-2-13B (fp32, sharded over two A100s)
// under CUDA MPS active-thread percentages, each in 1..100. The
// paper's testbed GPUs (40 GB A100s, §5.1) are used.
func Fig2Sweep(percents []int) (*Fig2Result, error) {
	for _, pct := range percents {
		if pct < 1 || pct > 100 {
			return nil, fmt.Errorf("core: fig2 MPS percentage %d outside 1..100", pct)
		}
	}
	res := &Fig2Result{CPUBaselines: map[string]time.Duration{}}
	scenarios := []struct {
		name   string
		cfg    llm.Config
		shards int
	}{
		{"llama2-7b", fp32(llm.LLaMa27B()), 1},
		{"llama2-13b", fp32(llm.LLaMa213B()), 2},
	}
	for _, sc := range scenarios {
		res.CPUBaselines[sc.name] = sc.cfg.CPUCompletionTime(20)
	}
	// Every grid cell is an independent simulation: fan them out
	// across cores, collecting points in scenario-major, percent-minor
	// order — the same order the sequential loop produced.
	spec := simgpu.A100SXM440GB()
	points, err := harness.Map(len(scenarios)*len(percents), func(i int) (SweepPoint, error) {
		sc := scenarios[i/len(percents)]
		pct := percents[i%len(percents)]
		lat, err := MeasureCompletionAtPercent(spec, sc.cfg, sc.shards, pct)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("core: fig2 %s@%d%%: %w", sc.name, pct, err)
		}
		return SweepPoint{
			Model:   sc.name,
			Percent: pct,
			SMs:     simgpu.PercentSMs(spec.SMs, pct),
			Latency: lat,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

func fp32(c llm.Config) llm.Config {
	c.BytesPerParam = 4
	return c
}

// Fig2SinglePoint measures one completion latency at an MPS
// percentage on a single 80 GB A100 — the probe the right-sizing
// study sweeps.
func Fig2SinglePoint(cfg llm.Config, pct int) (time.Duration, error) {
	return MeasureCompletionAtPercent(simgpu.A100SXM480GB(), cfg, 1, pct)
}

// MeasureCompletionAtPercent is the generic single-run probe: a fresh
// environment, `shards` devices of the given spec with MPS enabled,
// one context per device capped at pct, one 20-token completion.
func MeasureCompletionAtPercent(spec simgpu.DeviceSpec, cfg llm.Config, shards, pct int) (time.Duration, error) {
	var lat time.Duration
	err := probe(shards, spec, simgpu.PolicySpatial, func(s *sim, p *devent.Proc) error {
		ctxs := make([]*simgpu.Context, shards)
		for i, d := range s.Devices {
			ctx, err := d.NewContext(p, simgpu.ContextOpts{SkipInit: true, SMPercent: pct})
			if err != nil {
				return err
			}
			ctxs[i] = ctx
		}
		e, err := s.load(p, cfg, ctxs...)
		if err != nil {
			return err
		}
		c, err := e.Complete(p, 20, 20)
		lat = c.Latency
		return err
	})
	return lat, err
}
