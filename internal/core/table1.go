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
// burst plus isolation and reconfiguration micro-benchmarks. It also
// returns each burst's collector, one per row in the paper's row
// order, scoped table1/<technique>. observe turns on deep
// instrumentation and a non-empty slo spec (see Options.SLO) attaches
// the burn-rate monitor to every burst; neither changes the rows.
func RunTable1(observe bool, slo string) ([]Table1Row, []*obs.Collector, error) {
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
	var downtime time.Duration
	err := probe(1, simgpu.A100SXM480GB(), simgpu.PolicyVGPU, func(s *sim, p *devent.Proc) error {
		start := p.Now()
		p.Sleep(30 * time.Second) // VM reboot
		ctx, _ := s.Devices[0].NewContext(p, simgpu.ContextOpts{Group: "vm1"})
		_, err := s.load(p, fp32(llm.LLaMa27B()), ctx)
		downtime = p.Now() - start
		return err
	})
	return downtime, err
}

// isolationProbe runs one steady victim against three synchronized
// bursty aggressors under the given technique and returns the CoV of
// the victim's completion latency plus whether tenant memory pools are
// disjoint.
func isolationProbe(mode Mode) (float64, bool, error) {
	s, err := newSim(simgpu.PolicyTimeShare, simgpu.A100SXM480GB())
	if err != nil {
		return 0, false, err
	}
	dev := s.Devices[0]
	model := llm.LLaMa27B()
	// Aggressors sit on the 1g.10gb slices of the 4-way MIG layout.
	aggModel := servedModel(model, mode, 4)
	mkCtx, err := tenantContexts(s.Env, dev, mode, []deviceTenant{
		{pct: 25, profile: "3g.40gb", group: "vm0"},
		{pct: 25, profile: "1g.10gb", group: "vm1"},
		{pct: 25, profile: "1g.10gb", group: "vm2"},
		{pct: 25, profile: "1g.10gb", group: "vm3"},
	})
	if err != nil {
		return 0, false, err
	}

	var lat metrics.Durations
	var victimPool, aggPool *simgpu.MemPool
	victimDone := s.Env.NewEvent()
	s.spawn("victim", func(p *devent.Proc) error {
		defer victimDone.Fire(nil)
		ctx, err := mkCtx(p, 0)
		if err != nil {
			return err
		}
		victimPool = ctx.Pool()
		eng, err := s.load(p, model, ctx)
		if err != nil {
			return err
		}
		for i := 0; i < 12; i++ {
			c, err := eng.Complete(p, 20, 20)
			if err != nil {
				return err
			}
			lat.Add(c.Latency)
			p.Sleep(3 * time.Second)
		}
		return nil
	})
	for i := 1; i <= 3; i++ {
		s.spawn("aggressor", func(p *devent.Proc) error {
			ctx, err := mkCtx(p, i)
			if err != nil {
				return err
			}
			if aggPool == nil {
				aggPool = ctx.Pool()
			}
			eng, err := s.load(p, aggModel, ctx)
			if err != nil {
				return err
			}
			p.Sleep(8 * time.Second) // let the victim settle
			for !victimDone.Fired() {
				for b := 0; b < 2 && !victimDone.Fired(); b++ {
					if _, err := eng.Complete(p, 20, 20); err != nil {
						return err
					}
				}
				p.Sleep(12 * time.Second)
			}
			return nil
		}).SetDaemon(true)
	}
	if err := s.drain(); err != nil {
		return 0, false, err
	}
	isolated := victimPool != nil && aggPool != nil && victimPool != aggPool
	return lat.Summary().CoV(), isolated, nil
}
