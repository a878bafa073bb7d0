package core

import (
	"fmt"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/llm"
	"repro/internal/rightsize"
	"repro/internal/simgpu"
	"repro/internal/weightcache"
)

// Mode selects the GPU sharing technique (Table 1).
type Mode string

// The multiplexing techniques compared in the evaluation.
const (
	// ModeTimeshare is the GPU default: no multiplexing software.
	ModeTimeshare Mode = "timeshare"
	// ModeMPSDefault is CUDA MPS without percentages.
	ModeMPSDefault Mode = "mps-default"
	// ModeMPS is CUDA MPS with equal GPU-percentage splits (the
	// paper's Figs. 4–5 configuration).
	ModeMPS Mode = "mps"
	// ModeMIG uses MIG instances (3g/2g/1g per the paper).
	ModeMIG Mode = "mig"
	// ModeVGPU is vGPU-style VM time slicing.
	ModeVGPU Mode = "vgpu"
)

// MIGLayoutFor returns the paper's instance layout for n concurrent
// LLaMa processes on an 80 GB A100: 3/7 each at two, 2/7 at three,
// 1/7 at four (§5.2).
func MIGLayoutFor(n int) ([]string, error) {
	switch n {
	case 1:
		return []string{"7g.80gb"}, nil
	case 2:
		return []string{"3g.40gb", "3g.40gb"}, nil
	case 3:
		return []string{"2g.20gb", "2g.20gb", "2g.20gb"}, nil
	case 4:
		return []string{"1g.10gb", "1g.10gb", "1g.10gb", "1g.10gb"}, nil
	}
	return nil, fmt.Errorf("core: no MIG layout for %d processes", n)
}

// partition is the paper's configuration step (§4, Listings 1–3):
// it applies mode's plan for n processes to device 0 and returns the
// accelerator references and MPS percentages to bind, one per worker
// (pcts is nil unless mode is ModeMPS).
func (pl *Platform) partition(p *devent.Proc, mode Mode, n int) (accels []string, pcts []int, err error) {
	accels = make([]string, n)
	for i := range accels {
		accels[i] = "0"
	}
	switch mode {
	case ModeTimeshare:
	case ModeMPSDefault, ModeMPS:
		if _, err = pl.StartMPS(p, 0); err == nil && mode == ModeMPS {
			pcts, err = rightsize.EqualShares(pl.Devices[0].Spec(), n)
		}
	case ModeMIG:
		var layout []string
		if layout, err = MIGLayoutFor(n); err == nil {
			accels, err = pl.ConfigureMIG(p, 0, layout)
		}
	case ModeVGPU:
		err = pl.Devices[0].SetPolicy(simgpu.PolicyVGPU)
	default:
		err = fmt.Errorf("core: unknown mode %q", mode)
	}
	if err != nil {
		return nil, nil, err
	}
	return accels, pcts, nil
}

// servedModel is the LLaMa footprint deployed on one slice of mode's
// n-way plan. A 1g.10gb instance (MIG at four) cannot hold fp16 7B
// weights; the paper nevertheless runs 4 instances — only feasible
// with a quantized (≈int8) deployment, which we model as a footprint
// change only (the latency calibration is unchanged). See
// EXPERIMENTS.md.
func servedModel(m llm.Config, mode Mode, n int) llm.Config {
	if mode == ModeMIG && n == 4 {
		m.WeightBytesOverride = 6 * simgpu.GB
		m.WorkspaceBytes = 3 * simgpu.GB
	}
	return m
}

// llamaService is one LLaMa-2 service on a FaaS executor: the load app
// warms a worker's engine and the serve app runs one completion on it,
// returning the completion latency.
type llamaService struct {
	exec, load, serve string
	model             llm.Config
	prompt, output    int
	// cache, when set, attaches the weights through it under key, so a
	// restarted worker re-attaches instead of reloading; nil loads them
	// directly.
	cache *weightcache.Cache
	key   string
}

// registerLLaMa registers s's load and serve apps.
func (pl *Platform) registerLLaMa(s llamaService) {
	hostBW := pl.Devices[0].Spec().HostLoadBW
	engine := func(inv *faas.Invocation) (*llm.Engine, error) {
		// Resident (not just Loaded): a GPU context loss destroys the
		// warm engine's shards, and the replacement worker context
		// needs a fresh load.
		if e, ok := inv.State()["engine"].(*llm.Engine); ok && e.Resident() {
			return e, nil
		}
		ctx, err := inv.GPU()
		if err != nil {
			return nil, err
		}
		shards := []*simgpu.Context{ctx}
		var e *llm.Engine
		if s.cache != nil {
			e, _, err = s.cache.AttachOrLoad(inv.Proc(), s.key, s.model, shards, hostBW)
		} else {
			e = llm.New(s.model)
			err = e.Load(inv.Proc(), shards, hostBW)
		}
		if err != nil {
			return nil, err
		}
		inv.State()["engine"] = e
		return e, nil
	}
	pl.Register(faas.App{Name: s.load, Executor: s.exec, Fn: func(inv *faas.Invocation) (any, error) {
		_, err := engine(inv)
		return nil, err
	}})
	pl.Register(faas.App{Name: s.serve, Executor: s.exec, Fn: func(inv *faas.Invocation) (any, error) {
		e, err := engine(inv)
		if err != nil {
			return nil, err
		}
		comp, err := e.Complete(inv.Proc(), s.prompt, s.output)
		if err != nil {
			return nil, err
		}
		return comp.Latency, nil
	}})
}

// deviceTenant is one tenant of a bare device (no FaaS layer): the
// name of its context and its slice under each technique.
type deviceTenant struct {
	name    string
	pct     int    // SM percentage under ModeMPS
	profile string // MIG instance profile under ModeMIG
	group   string // VM under ModeVGPU
}

// tenantContexts partitions dev for mode and returns the factory that
// opens tenant i's context on its slice. Under MIG a "mig-setup" proc
// installs the tenants' profiles, and the factory waits for it.
func tenantContexts(env *devent.Env, dev *simgpu.Device, mode Mode, tenants []deviceTenant) (func(p *devent.Proc, i int) (*simgpu.Context, error), error) {
	switch mode {
	case ModeTimeshare:
	case ModeMPSDefault, ModeMPS:
		if err := dev.SetPolicy(simgpu.PolicySpatial); err != nil {
			return nil, err
		}
	case ModeVGPU:
		if err := dev.SetPolicy(simgpu.PolicyVGPU); err != nil {
			return nil, err
		}
	case ModeMIG:
		profiles := make([]string, len(tenants))
		for i, t := range tenants {
			profiles[i] = t.profile
		}
		ready := env.NewEvent()
		var instances []*simgpu.Instance
		var setupErr error
		env.Spawn("mig-setup", func(p *devent.Proc) {
			defer ready.Fire(nil)
			if setupErr = dev.EnableMIG(p); setupErr == nil {
				instances, setupErr = dev.ConfigureMIG(p, profiles)
			}
		})
		return func(p *devent.Proc, i int) (*simgpu.Context, error) {
			p.Wait(ready)
			if setupErr != nil {
				return nil, setupErr
			}
			return instances[i].NewContext(p, simgpu.ContextOpts{SkipInit: true, Name: tenants[i].name})
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown mode %q", mode)
	}
	return func(p *devent.Proc, i int) (*simgpu.Context, error) {
		opts := simgpu.ContextOpts{SkipInit: true, Name: tenants[i].name}
		if mode == ModeMPS {
			opts.SMPercent = tenants[i].pct
		}
		if mode == ModeVGPU {
			opts.Group = tenants[i].group
		}
		return dev.NewContext(p, opts)
	}, nil
}
