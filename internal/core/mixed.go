package core

import (
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/simgpu"
	"repro/internal/vision"
)

// MixedTenancyResult quantifies what co-locating a latency-sensitive
// CNN service with an LLM does under each sharing technique. The
// paper motivates this exact scenario: §3.3–3.4 show CNN inference
// cannot fill an A100, and §6 cites real-time object detection's
// <100 ms budget — which default time-sharing destroys, because every
// ResNet request queues behind ~180 ms LLaMa decode kernels.
type MixedTenancyResult struct {
	Mode Mode
	// ResNetSolo is the CNN's request latency with the GPU to itself.
	ResNetSolo time.Duration
	// ResNetMean/P99 are its latencies next to the LLM tenant.
	ResNetMean time.Duration
	ResNetP99  time.Duration
	// LLMMean is the LLM tenant's completion latency in the same run.
	LLMMean time.Duration
	// MeetsRealTime reports whether the CNN's p99 stays under the
	// 100 ms budget (§6).
	MeetsRealTime bool
}

// RunMixedTenancy co-locates one ResNet-50 service (batch 1, 300
// requests with small think time) with one LLaMa-2-7B service decoding
// continuously, under the given technique.
func RunMixedTenancy(mode Mode) (*MixedTenancyResult, error) {
	solo, err := resnetSolo()
	if err != nil {
		return nil, err
	}
	env := devent.NewEnv()
	defer env.Close()
	dev, err := simgpu.NewDevice(env, "gpu0", simgpu.A100SXM480GB())
	if err != nil {
		return nil, err
	}
	hostBW := dev.Spec().HostLoadBW

	var resnetCtx, llamaCtx func(p *devent.Proc) (*simgpu.Context, error)
	switch mode {
	case ModeTimeshare:
		resnetCtx = func(p *devent.Proc) (*simgpu.Context, error) {
			return dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, Name: "resnet"})
		}
		llamaCtx = func(p *devent.Proc) (*simgpu.Context, error) {
			return dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, Name: "llama"})
		}
	case ModeMPSDefault, ModeMPS:
		if err := dev.SetPolicy(simgpu.PolicySpatial); err != nil {
			return nil, err
		}
		rPct, lPct := 0, 0
		if mode == ModeMPS {
			rPct, lPct = 20, 80 // right-sized split
		}
		resnetCtx = func(p *devent.Proc) (*simgpu.Context, error) {
			return dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, Name: "resnet", SMPercent: rPct})
		}
		llamaCtx = func(p *devent.Proc) (*simgpu.Context, error) {
			return dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, Name: "llama", SMPercent: lPct})
		}
	case ModeMIG:
		ready := env.NewEvent()
		var rIn, lIn *simgpu.Instance
		var setupErr error
		env.Spawn("mig-setup", func(p *devent.Proc) {
			defer ready.Fire(nil)
			if err := dev.EnableMIG(p); err != nil {
				setupErr = err
				return
			}
			ins, err := dev.ConfigureMIG(p, []string{"1g.10gb", "3g.40gb"})
			if err != nil {
				setupErr = err
				return
			}
			rIn, lIn = ins[0], ins[1]
		})
		resnetCtx = func(p *devent.Proc) (*simgpu.Context, error) {
			p.Wait(ready)
			if setupErr != nil {
				return nil, setupErr
			}
			return rIn.NewContext(p, simgpu.ContextOpts{SkipInit: true, Name: "resnet"})
		}
		llamaCtx = func(p *devent.Proc) (*simgpu.Context, error) {
			p.Wait(ready)
			if setupErr != nil {
				return nil, setupErr
			}
			return lIn.NewContext(p, simgpu.ContextOpts{SkipInit: true, Name: "llama"})
		}
	case ModeVGPU:
		if err := dev.SetPolicy(simgpu.PolicyVGPU); err != nil {
			return nil, err
		}
		resnetCtx = func(p *devent.Proc) (*simgpu.Context, error) {
			return dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, Name: "resnet", Group: "vm-resnet"})
		}
		llamaCtx = func(p *devent.Proc) (*simgpu.Context, error) {
			return dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, Name: "llama", Group: "vm-llama"})
		}
	default:
		return nil, fmt.Errorf("core: unknown mode %q", mode)
	}

	res := &MixedTenancyResult{Mode: mode, ResNetSolo: solo}
	var rLat metrics.Durations
	var lLat metrics.Durations
	resnetDone := env.NewEvent()
	env.Spawn("resnet", func(p *devent.Proc) {
		defer resnetDone.Fire(nil)
		ctx, err := resnetCtx(p)
		if err != nil {
			env.Fail(err)
			return
		}
		e := vision.New(vision.Config{Model: models.ResNet50()})
		if err := e.Load(p, ctx, hostBW); err != nil {
			env.Fail(err)
			return
		}
		p.Sleep(5 * time.Second) // let the LLM settle
		for i := 0; i < 300; i++ {
			l, err := e.Infer(p)
			if err != nil {
				env.Fail(err)
				return
			}
			rLat.Add(l)
			p.Sleep(20 * time.Millisecond) // camera frame pacing
		}
	})
	llamaProc := env.Spawn("llama", func(p *devent.Proc) {
		ctx, err := llamaCtx(p)
		if err != nil {
			env.Fail(err)
			return
		}
		e := llm.New(llm.LLaMa27B())
		if err := e.Load(p, []*simgpu.Context{ctx}, hostBW); err != nil {
			env.Fail(err)
			return
		}
		for !resnetDone.Fired() {
			c, err := e.Complete(p, 20, 20)
			if err != nil {
				env.Fail(err)
				return
			}
			lLat.Add(c.Latency)
		}
	})
	llamaProc.SetDaemon(true)
	if err := env.Run(); err != nil {
		return nil, err
	}
	res.ResNetMean = rLat.Mean()
	res.ResNetP99 = rLat.Percentile(99)
	res.LLMMean = lLat.Mean()
	res.MeetsRealTime = res.ResNetP99 < 100*time.Millisecond
	return res, nil
}

// resnetSolo measures the CNN's request latency on an idle device.
func resnetSolo() (time.Duration, error) {
	env := devent.NewEnv()
	defer env.Close()
	dev, err := simgpu.NewDevice(env, "gpu0", simgpu.A100SXM480GB())
	if err != nil {
		return 0, err
	}
	var lat metrics.Durations
	env.Spawn("resnet", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		e := vision.New(vision.Config{Model: models.ResNet50()})
		if err := e.Load(p, ctx, dev.Spec().HostLoadBW); err != nil {
			env.Fail(err)
			return
		}
		for i := 0; i < 50; i++ {
			l, err := e.Infer(p)
			if err != nil {
				env.Fail(err)
				return
			}
			lat.Add(l)
		}
	})
	if err := env.Run(); err != nil {
		return 0, err
	}
	return lat.Mean(), nil
}
