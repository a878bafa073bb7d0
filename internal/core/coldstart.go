package core

import (
	"fmt"
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
	var out []ColdStartBreakdown
	for _, sc := range scenarios {
		b, err := measureColdStart(sc.name, sc.cfg, sc.shards, workerInit)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func measureColdStart(name string, cfg llm.Config, shards int, workerInit time.Duration) (ColdStartBreakdown, error) {
	env := devent.NewEnv()
	defer env.Close()
	devs := make([]*simgpu.Device, shards)
	for i := range devs {
		d, err := simgpu.NewDevice(env, fmt.Sprintf("gpu%d", i), simgpu.A100SXM480GB())
		if err != nil {
			return ColdStartBreakdown{}, err
		}
		devs[i] = d
	}
	var b ColdStartBreakdown
	b.Scenario = name
	env.Spawn("coldstart", func(p *devent.Proc) {
		start := p.Now()
		p.Sleep(workerInit) // function initialization
		b.WorkerInit = p.Now() - start

		t := p.Now()
		ctxs := make([]*simgpu.Context, shards)
		for i, d := range devs {
			ctx, err := d.NewContext(p, simgpu.ContextOpts{}) // pays context init
			if err != nil {
				env.Fail(err)
				return
			}
			ctxs[i] = ctx
		}
		b.ContextInit = p.Now() - t

		e := llm.New(cfg)
		if err := e.Load(p, ctxs, devs[0].Spec().HostLoadBW); err != nil {
			env.Fail(err)
			return
		}
		b.ModelLoad = e.LoadTime()
		b.Total = p.Now() - start
	})
	if err := env.Run(); err != nil {
		return ColdStartBreakdown{}, err
	}
	return b, nil
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
	for _, cached := range []bool{false, true} {
		env := devent.NewEnv()
		defer env.Close()
		dev, err := simgpu.NewDevice(env, "gpu0", simgpu.A100SXM480GB())
		if err != nil {
			return nil, err
		}
		if err := dev.SetPolicy(simgpu.PolicySpatial); err != nil {
			return nil, err
		}
		cache := weightcache.New()
		var downtime time.Duration
		env.Spawn("svc", func(p *devent.Proc) {
			hostBW := dev.Spec().HostLoadBW
			ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SMPercent: 50})
			var eng *llm.Engine
			var err error
			if cached {
				eng, _, err = cache.AttachOrLoad(p, "7b", cfg, []*simgpu.Context{ctx}, hostBW)
			} else {
				eng = llm.New(cfg)
				err = eng.Load(p, []*simgpu.Context{ctx}, hostBW)
			}
			if err != nil {
				env.Fail(err)
				return
			}
			if _, err := eng.Complete(p, 20, 20); err != nil {
				env.Fail(err)
				return
			}
			// Re-partition 50% → 25%: kill, restart, reload.
			start := p.Now()
			eng.Unload()
			ctx.Destroy()
			p.Sleep(workerInit)
			ctx2, _ := dev.NewContext(p, simgpu.ContextOpts{SMPercent: 25})
			if cached {
				eng, _, err = cache.AttachOrLoad(p, "7b", cfg, []*simgpu.Context{ctx2}, hostBW)
			} else {
				eng = llm.New(cfg)
				err = eng.Load(p, []*simgpu.Context{ctx2}, hostBW)
			}
			if err != nil {
				env.Fail(err)
				return
			}
			downtime = p.Now() - start
		})
		if err := env.Run(); err != nil {
			return nil, err
		}
		name := "MPS repartition (process restart)"
		note := "reload pays full model load"
		if cached {
			name = "MPS repartition + GPU weight cache"
			note = "reattaches GPU-resident weights; no reload"
		}
		out = append(out, ReconfigResult{Approach: name, Downtime: downtime, Note: note})
	}

	// --- MIG re-layout: drain, reset, restart, reload.
	{
		env := devent.NewEnv()
		defer env.Close()
		dev, err := simgpu.NewDevice(env, "gpu0", simgpu.A100SXM480GB())
		if err != nil {
			return nil, err
		}
		var downtime time.Duration
		env.Spawn("svc", func(p *devent.Proc) {
			hostBW := dev.Spec().HostLoadBW
			if err := dev.EnableMIG(p); err != nil {
				env.Fail(err)
				return
			}
			ins, err := dev.ConfigureMIG(p, []string{"3g.40gb", "3g.40gb"})
			if err != nil {
				env.Fail(err)
				return
			}
			ctx, _ := ins[0].NewContext(p, simgpu.ContextOpts{})
			eng := llm.New(cfg)
			if err := eng.Load(p, []*simgpu.Context{ctx}, hostBW); err != nil {
				env.Fail(err)
				return
			}
			// Grow the service to 7g: every app on the GPU must stop.
			start := p.Now()
			eng.Unload()
			ctx.Destroy()
			ins2, err := dev.ConfigureMIG(p, []string{"7g.80gb"}) // device reset
			if err != nil {
				env.Fail(err)
				return
			}
			p.Sleep(workerInit)
			ctx2, _ := ins2[0].NewContext(p, simgpu.ContextOpts{})
			eng = llm.New(cfg)
			if err := eng.Load(p, []*simgpu.Context{ctx2}, hostBW); err != nil {
				env.Fail(err)
				return
			}
			downtime = p.Now() - start
		})
		if err := env.Run(); err != nil {
			return nil, err
		}
		out = append(out, ReconfigResult{
			Approach: "MIG re-layout (reset + restart)",
			Downtime: downtime,
			Note:     "adds the device reset; instance memory (and any cache in it) is lost",
		})
	}
	return out, nil
}
