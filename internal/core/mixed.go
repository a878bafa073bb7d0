package core

import (
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
	s, err := newSim(simgpu.PolicyTimeShare, simgpu.A100SXM480GB())
	if err != nil {
		return nil, err
	}
	dev := s.Devices[0]

	// Under MPS the split is right-sized: 20% of the SMs for the CNN.
	mkCtx, err := tenantContexts(s.Env, dev, mode, []deviceTenant{
		{name: "resnet", pct: 20, profile: "1g.10gb", group: "vm-resnet"},
		{name: "llama", pct: 80, profile: "3g.40gb", group: "vm-llama"},
	})
	if err != nil {
		return nil, err
	}

	res := &MixedTenancyResult{Mode: mode, ResNetSolo: solo}
	var rLat metrics.Durations
	var lLat metrics.Durations
	resnetDone := s.Env.NewEvent()
	s.spawn("resnet", func(p *devent.Proc) error {
		defer resnetDone.Fire(nil)
		ctx, err := mkCtx(p, 0)
		if err != nil {
			return err
		}
		e := vision.New(vision.Config{Model: models.ResNet50()})
		if err := e.Load(p, ctx, dev.Spec().HostLoadBW); err != nil {
			return err
		}
		p.Sleep(5 * time.Second) // let the LLM settle
		for i := 0; i < 300; i++ {
			l, err := e.Infer(p)
			if err != nil {
				return err
			}
			rLat.Add(l)
			p.Sleep(20 * time.Millisecond) // camera frame pacing
		}
		return nil
	})
	s.spawn("llama", func(p *devent.Proc) error {
		ctx, err := mkCtx(p, 1)
		if err != nil {
			return err
		}
		e, err := s.load(p, llm.LLaMa27B(), ctx)
		if err != nil {
			return err
		}
		for !resnetDone.Fired() {
			c, err := e.Complete(p, 20, 20)
			if err != nil {
				return err
			}
			lLat.Add(c.Latency)
		}
		return nil
	}).SetDaemon(true)
	if err := s.drain(); err != nil {
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
	var lat metrics.Durations
	err := probe(1, simgpu.A100SXM480GB(), simgpu.PolicyTimeShare, func(s *sim, p *devent.Proc) error {
		dev := s.Devices[0]
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		e := vision.New(vision.Config{Model: models.ResNet50()})
		if err := e.Load(p, ctx, dev.Spec().HostLoadBW); err != nil {
			return err
		}
		for i := 0; i < 50; i++ {
			l, err := e.Infer(p)
			if err != nil {
				return err
			}
			lat.Add(l)
		}
		return nil
	})
	return lat.Mean(), err
}
