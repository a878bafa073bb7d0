package core

import (
	"fmt"
	"math"
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
// under CUDA MPS active-thread percentages. The paper's testbed GPUs
// (40 GB A100s, §5.1) are used.
func Fig2Sweep(percents []int) (*Fig2Result, error) {
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
	points, err := harness.Map(len(scenarios)*len(percents), func(i int) (SweepPoint, error) {
		sc := scenarios[i/len(percents)]
		pct := percents[i%len(percents)]
		lat, err := measureAtPercent(sc.cfg, sc.shards, pct)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("core: fig2 %s@%d%%: %w", sc.name, pct, err)
		}
		spec := simgpu.A100SXM440GB()
		return SweepPoint{
			Model:   sc.name,
			Percent: pct,
			SMs:     smsFor(spec.SMs, pct),
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

func smsFor(deviceSMs, pct int) int {
	if pct >= 100 {
		return deviceSMs
	}
	return int(math.Ceil(float64(pct) / 100 * float64(deviceSMs)))
}

// measureAtPercent builds a fresh simulated testbed and measures one
// 20-token completion with every shard capped at pct percent of its
// device's SMs.
func measureAtPercent(cfg llm.Config, shards, pct int) (time.Duration, error) {
	return MeasureCompletionAtPercent(simgpu.A100SXM440GB(), cfg, shards, pct)
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
	env := devent.NewEnv()
	defer env.Close()
	devs := make([]*simgpu.Device, shards)
	for i := range devs {
		d, err := simgpu.NewDevice(env, fmt.Sprintf("gpu%d", i), spec)
		if err != nil {
			return 0, err
		}
		if err := d.SetPolicy(simgpu.PolicySpatial); err != nil {
			return 0, err
		}
		devs[i] = d
	}
	var lat time.Duration
	var runErr error
	env.Spawn("probe", func(p *devent.Proc) {
		ctxs := make([]*simgpu.Context, shards)
		for i, d := range devs {
			ctx, err := d.NewContext(p, simgpu.ContextOpts{SkipInit: true, SMPercent: pct})
			if err != nil {
				runErr = err
				return
			}
			ctxs[i] = ctx
		}
		e := llm.New(cfg)
		if err := e.Load(p, ctxs, devs[0].Spec().HostLoadBW); err != nil {
			runErr = err
			return
		}
		c, err := e.Complete(p, 20, 20)
		if err != nil {
			runErr = err
			return
		}
		lat = c.Latency
	})
	if err := env.Run(); err != nil {
		return 0, err
	}
	return lat, runErr
}
