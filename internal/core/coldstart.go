package core

import (
	"time"

	"repro/internal/devent"
	"repro/internal/llm"
	"repro/internal/simgpu"
	"repro/internal/weightcache"
)

// ColdStartBreakdown decomposes a serverless GPU cold start into the
// paper's three components (§6): function initialization, GPU context
// initialization, and application (model) loading.
type ColdStartBreakdown struct {
	Scenario    string
	WorkerInit  time.Duration
	ContextInit time.Duration
	ModelLoad   time.Duration
	Total       time.Duration
}

// RunColdStart measures the breakdown for the paper's models. The
// 13B fp32 load lands at ≈10 s, the paper's headline number.
func RunColdStart(workerInit time.Duration) ([]ColdStartBreakdown, error) {
	if workerInit <= 0 {
		workerInit = 2 * time.Second
	}
	scenarios := []struct {
		name   string
		cfg    llm.Config
		shards int
	}{
		{"llama2-7b fp16", llm.LLaMa27B(), 1},
		{"llama2-7b fp32", fp32(llm.LLaMa27B()), 1},
		{"llama2-13b fp32 (2 GPUs)", fp32(llm.LLaMa213B()), 2},
	}
	out := make([]ColdStartBreakdown, len(scenarios))
	for i, sc := range scenarios {
		b := &out[i]
		b.Scenario = sc.name
		err := probe(sc.shards, simgpu.A100SXM480GB(), simgpu.PolicyTimeShare, func(s *sim, p *devent.Proc) error {
			start := p.Now()
			p.Sleep(workerInit) // function initialization
			b.WorkerInit = p.Now() - start

			t := p.Now()
			ctxs := make([]*simgpu.Context, sc.shards)
			for i, d := range s.Devices {
				ctx, err := d.NewContext(p, simgpu.ContextOpts{}) // pays context init
				if err != nil {
					return err
				}
				ctxs[i] = ctx
			}
			b.ContextInit = p.Now() - t

			e, err := s.load(p, sc.cfg, ctxs...)
			if err != nil {
				return err
			}
			b.ModelLoad = e.LoadTime()
			b.Total = p.Now() - start
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReconfigResult is the downtime of one re-partitioning approach.
type ReconfigResult struct {
	Approach string
	// Downtime is from killing the old process to inference-ready.
	Downtime time.Duration
	// Note records a qualitative finding.
	Note string
}

// RunReconfig measures the paper's §6/§7 reconfiguration costs:
// changing a running LLaMa service's GPU share requires a process
// restart under MPS (10–20 s with model reload for fp32 models) and a
// device reset plus restart under MIG; the future-work weight cache
// removes the reload for MPS but cannot survive a MIG re-layout
// (instance memory dies with the instance).
func RunReconfig(workerInit time.Duration) ([]ReconfigResult, error) {
	if workerInit <= 0 {
		workerInit = 2 * time.Second
	}
	cfg := fp32(llm.LLaMa27B())
	var out []ReconfigResult

	// --- MPS repartition, with and without the weight cache.
	for i, r := range []ReconfigResult{
		{Approach: "MPS repartition (process restart)", Note: "reload pays full model load"},
		{Approach: "MPS repartition + GPU weight cache", Note: "reattaches GPU-resident weights; no reload"},
	} {
		cached := i == 1
		cache := weightcache.New()
		err := probe(1, simgpu.A100SXM480GB(), simgpu.PolicySpatial, func(s *sim, p *devent.Proc) error {
			dev := s.Devices[0]
			load := func(ctx *simgpu.Context) (*llm.Engine, error) {
				if cached {
					eng, _, err := cache.AttachOrLoad(p, "7b", cfg, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW)
					return eng, err
				}
				return s.load(p, cfg, ctx)
			}
			ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SMPercent: 50})
			eng, err := load(ctx)
			if err != nil {
				return err
			}
			if _, err := eng.Complete(p, 20, 20); err != nil {
				return err
			}
			// Re-partition 50% → 25%: kill, restart, reload.
			start := p.Now()
			eng.Unload()
			ctx.Destroy()
			p.Sleep(workerInit)
			ctx, _ = dev.NewContext(p, simgpu.ContextOpts{SMPercent: 25})
			_, err = load(ctx)
			r.Downtime = p.Now() - start
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}

	// --- MIG re-layout: drain, reset, restart, reload.
	var downtime time.Duration
	err := probe(1, simgpu.A100SXM480GB(), simgpu.PolicyTimeShare, func(s *sim, p *devent.Proc) error {
		dev := s.Devices[0]
		if err := dev.EnableMIG(p); err != nil {
			return err
		}
		ins, err := dev.ConfigureMIG(p, []string{"3g.40gb", "3g.40gb"})
		if err != nil {
			return err
		}
		ctx, _ := ins[0].NewContext(p, simgpu.ContextOpts{})
		eng, err := s.load(p, cfg, ctx)
		if err != nil {
			return err
		}
		// Grow the service to 7g: every app on the GPU must stop.
		start := p.Now()
		eng.Unload()
		ctx.Destroy()
		ins2, err := dev.ConfigureMIG(p, []string{"7g.80gb"}) // device reset
		if err != nil {
			return err
		}
		p.Sleep(workerInit)
		ctx, _ = ins2[0].NewContext(p, simgpu.ContextOpts{})
		_, err = s.load(p, cfg, ctx)
		downtime = p.Now() - start
		return err
	})
	if err != nil {
		return nil, err
	}
	return append(out, ReconfigResult{
		Approach: "MIG re-layout (reset + restart)",
		Downtime: downtime,
		Note:     "adds the device reset; instance memory (and any cache in it) is lost",
	}), nil
}
