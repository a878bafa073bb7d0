package core

import (
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/harness"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simgpu"
)

// Table1Row quantifies one multiplexing technique: the measured
// counterpart of the paper's qualitative Table 1.
type Table1Row struct {
	Technique string
	// Utilization and Throughput/MeanLatency come from the 4-process
	// LLaMa burst (same workload as Fig. 4).
	Utilization float64
	Throughput  float64
	MeanLatency time.Duration
	// VictimCoV is the coefficient of variation of a steady tenant's
	// latency while three bursty neighbours come and go — the
	// isolation metric (lower is better).
	VictimCoV float64
	// ReconfigDowntime is the measured cost of changing the
	// partitioning (0 = nothing to reconfigure).
	ReconfigDowntime time.Duration
	// MemoryIsolated reports whether tenants draw from separate
	// memory pools.
	MemoryIsolated bool
	// Software names the required control software (Table 1 column).
	Software string
	// ContextSwitches is the measured scheduling-switch count on the
	// device during the burst (time-share penalties + vGPU rotations).
	ContextSwitches int
}

// Table1Modes lists the techniques in the paper's row order.
var Table1Modes = []Mode{ModeTimeshare, ModeMPSDefault, ModeMPS, ModeMIG, ModeVGPU}

var table1Software = map[Mode]string{
	ModeTimeshare:  "none",
	ModeMPSDefault: "nvidia-cuda-mps-control",
	ModeMPS:        "nvidia-cuda-mps-control",
	ModeMIG:        "nvidia-smi",
	ModeVGPU:       "NVIDIA vGPU driver",
}

// RunTable1 measures every technique under a common 4-tenant LLaMa
// burst plus isolation and reconfiguration micro-benchmarks.
func RunTable1() ([]Table1Row, error) {
	rows, _, err := RunTable1Observed(false, "")
	return rows, err
}

// RunTable1Observed is RunTable1 with optional deep instrumentation;
// it additionally returns each burst's collector, one per row in the
// paper's row order. A non-empty slo spec (see Options.SLO) attaches
// the burn-rate monitor to every burst.
func RunTable1Observed(observe bool, slo string) ([]Table1Row, []*obs.Collector, error) {
	reconfigs, err := RunReconfig(2 * time.Second)
	if err != nil {
		return nil, nil, err
	}
	reconfigByMode := map[Mode]time.Duration{
		ModeTimeshare:  0,
		ModeMPSDefault: 0,
		ModeMPS:        reconfigs[0].Downtime, // process restart
		ModeMIG:        reconfigs[2].Downtime, // reset + restart
	}
	vgpuReconfig, err := measureVGPUReconfig()
	if err != nil {
		return nil, nil, err
	}
	reconfigByMode[ModeVGPU] = vgpuReconfig

	// Each technique's burst + isolation probe is an independent pair
	// of simulations; measure the techniques concurrently, rows in the
	// paper's order.
	type cell struct {
		row Table1Row
		obs *obs.Collector
	}
	cells, err := harness.Map(len(Table1Modes), func(i int) (cell, error) {
		mode := Table1Modes[i]
		mr, err := RunMultiplex(MultiplexConfig{Mode: mode, Processes: 4, Completions: 32, Observe: observe, SLO: slo})
		if err != nil {
			return cell{}, fmt.Errorf("core: table1 %s burst: %w", mode, err)
		}
		mr.Obs.SetScope(fmt.Sprintf("table1/%s", mode))
		cov, isolated, err := isolationProbe(mode)
		if err != nil {
			return cell{}, fmt.Errorf("core: table1 %s isolation: %w", mode, err)
		}
		return cell{
			row: Table1Row{
				Technique:        string(mode),
				Utilization:      mr.Utilization,
				Throughput:       mr.Throughput,
				MeanLatency:      mr.MeanLatency(),
				VictimCoV:        cov,
				ReconfigDowntime: reconfigByMode[mode],
				MemoryIsolated:   isolated,
				Software:         table1Software[mode],
				ContextSwitches:  mr.ContextSwitches,
			},
			obs: mr.Obs,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	rows := make([]Table1Row, len(cells))
	collectors := make([]*obs.Collector, len(cells))
	for i, c := range cells {
		rows[i] = c.row
		collectors[i] = c.obs
	}
	return rows, collectors, nil
}

// measureVGPUReconfig models Table 1's "requires restarting a VM":
// VM reboot plus context init plus model reload.
func measureVGPUReconfig() (time.Duration, error) {
	env := devent.NewEnv()
	defer env.Close()
	dev, err := simgpu.NewDevice(env, "gpu0", simgpu.A100SXM480GB())
	if err != nil {
		return 0, err
	}
	if err := dev.SetPolicy(simgpu.PolicyVGPU); err != nil {
		return 0, err
	}
	var downtime time.Duration
	env.Spawn("vm", func(p *devent.Proc) {
		start := p.Now()
		p.Sleep(30 * time.Second) // VM reboot
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{Group: "vm1"})
		eng := llm.New(fp32(llm.LLaMa27B()))
		if err := eng.Load(p, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW); err != nil {
			env.Fail(err)
			return
		}
		downtime = p.Now() - start
	})
	if err := env.Run(); err != nil {
		return 0, err
	}
	return downtime, nil
}

// isolationProbe runs one steady victim against three synchronized
// bursty aggressors under the given technique and returns the CoV of
// the victim's completion latency plus whether tenant memory pools are
// disjoint.
func isolationProbe(mode Mode) (float64, bool, error) {
	env := devent.NewEnv()
	defer env.Close()
	dev, err := simgpu.NewDevice(env, "gpu0", simgpu.A100SXM480GB())
	if err != nil {
		return 0, false, err
	}
	hostBW := dev.Spec().HostLoadBW
	model := llm.LLaMa27B()
	aggModel := model

	// Partition setup + per-tenant context factory.
	type tenantCtx func(p *devent.Proc, i int) (*simgpu.Context, error)
	var mkCtx tenantCtx
	switch mode {
	case ModeTimeshare:
		mkCtx = func(p *devent.Proc, i int) (*simgpu.Context, error) {
			return dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		}
	case ModeMPSDefault:
		if err := dev.SetPolicy(simgpu.PolicySpatial); err != nil {
			return 0, false, err
		}
		mkCtx = func(p *devent.Proc, i int) (*simgpu.Context, error) {
			return dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		}
	case ModeMPS:
		if err := dev.SetPolicy(simgpu.PolicySpatial); err != nil {
			return 0, false, err
		}
		mkCtx = func(p *devent.Proc, i int) (*simgpu.Context, error) {
			return dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, SMPercent: 25})
		}
	case ModeVGPU:
		if err := dev.SetPolicy(simgpu.PolicyVGPU); err != nil {
			return 0, false, err
		}
		mkCtx = func(p *devent.Proc, i int) (*simgpu.Context, error) {
			return dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, Group: fmt.Sprintf("vm%d", i)})
		}
	case ModeMIG:
		var setupErr error
		ready := env.NewEvent()
		var instances []*simgpu.Instance
		env.Spawn("mig-setup", func(p *devent.Proc) {
			if err := dev.EnableMIG(p); err != nil {
				setupErr = err
				ready.Fire(nil)
				return
			}
			ins, err := dev.ConfigureMIG(p, []string{"3g.40gb", "1g.10gb", "1g.10gb", "1g.10gb"})
			if err != nil {
				setupErr = err
				ready.Fire(nil)
				return
			}
			instances = ins
			ready.Fire(nil)
		})
		aggModel.WeightBytesOverride = 6 * simgpu.GB
		aggModel.WorkspaceBytes = 3 * simgpu.GB
		mkCtx = func(p *devent.Proc, i int) (*simgpu.Context, error) {
			p.Wait(ready)
			if setupErr != nil {
				return nil, setupErr
			}
			return instances[i].NewContext(p, simgpu.ContextOpts{SkipInit: true})
		}
	default:
		return 0, false, fmt.Errorf("core: unknown mode %q", mode)
	}

	var lat metrics.Durations
	var victimPool, aggPool *simgpu.MemPool
	victimDone := env.NewEvent()
	env.Spawn("victim", func(p *devent.Proc) {
		defer victimDone.Fire(nil)
		ctx, err := mkCtx(p, 0)
		if err != nil {
			env.Fail(err)
			return
		}
		victimPool = ctx.Pool()
		eng := llm.New(model)
		if err := eng.Load(p, []*simgpu.Context{ctx}, hostBW); err != nil {
			env.Fail(err)
			return
		}
		for i := 0; i < 12; i++ {
			c, err := eng.Complete(p, 20, 20)
			if err != nil {
				env.Fail(err)
				return
			}
			lat.Add(c.Latency)
			p.Sleep(3 * time.Second)
		}
	})
	for i := 1; i <= 3; i++ {
		i := i
		agg := env.Spawn("aggressor", func(p *devent.Proc) {
			ctx, err := mkCtx(p, i)
			if err != nil {
				env.Fail(err)
				return
			}
			if aggPool == nil {
				aggPool = ctx.Pool()
			}
			eng := llm.New(aggModel)
			if err := eng.Load(p, []*simgpu.Context{ctx}, hostBW); err != nil {
				env.Fail(err)
				return
			}
			p.Sleep(8 * time.Second) // let the victim settle
			for !victimDone.Fired() {
				for b := 0; b < 2 && !victimDone.Fired(); b++ {
					if _, err := eng.Complete(p, 20, 20); err != nil {
						env.Fail(err)
						return
					}
				}
				p.Sleep(12 * time.Second)
			}
		})
		agg.SetDaemon(true)
	}
	if err := env.Run(); err != nil {
		return 0, false, err
	}
	isolated := victimPool != nil && aggPool != nil && victimPool != aggPool
	return lat.Summary().CoV(), isolated, nil
}
