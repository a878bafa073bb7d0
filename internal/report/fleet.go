package report

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// FleetOptions parameterizes the fleet-scale placement artifact. Zero
// values take the core.FleetConfig defaults (128 GPUs, 56 apps, 10 min
// horizon).
type FleetOptions struct {
	GPUs80, GPUs40 int
	Apps           int
	Duration       time.Duration
	ArrivalRate    float64
	Seed           int64
	// Stream attaches a streaming span sink to every cell so spans
	// flush as they end instead of being retained. The artifact is
	// byte-identical either way: every reported quantity is virtual.
	Stream bool
	// Attach forwards to core.FleetConfig.Attach, once per load cell
	// under scope "fleet/<load>", and turns per-cell tsdb stores on.
	Attach core.AttachFunc
	// Alerts, when set, renders each cell's end-of-run alert-rule
	// history (engine state + resolved incidents, grid order) to this
	// writer, turning per-cell tsdb stores on. Purely virtual:
	// byte-identical at any -parallel level and under -stream.
	Alerts io.Writer
}

// cellCollector is the OnCollector hook of grid cell i of a fleet or
// autoscale artifact: it names the cell's scope, under which Attach
// registers the cell, numbers it trace process i+1, so the cells' live
// tails render as distinct processes in grid order, and with stream
// gives it a discarding sink.
func cellCollector(i int, scope string, stream bool) func(*obs.Collector) {
	return func(c *obs.Collector) {
		c.SetScope(scope)
		c.SetTracePID(i + 1)
		if stream {
			c.SetSink(discardSink{})
		}
	}
}

// fleetLoads are the offered-load multipliers of the artifact's grid,
// applied to the configured (or default) arrival rate.
var fleetLoads = []float64{0.5, 1.0, 1.5}

// fleetLoadLabel names one grid cell, e.g. "load1.5x".
func fleetLoadLabel(m float64) string { return fmt.Sprintf("load%.1fx", m) }

// Fleet runs the fleet-scale placement scenario across the offered-load
// grid and writes the artifact: per cell, the config echo, admission
// and per-class SLO attainment, the fragmentation timeline, and the
// rebalance ledger. Every line is virtual — byte-identical at any
// -parallel level and under -stream.
func Fleet(w io.Writer, opts FleetOptions) error {
	bw := bufio.NewWriter(w)
	header(bw, "Fleet-scale placement — fragmentation-aware MIG+MPS packing")
	base := core.FleetConfig{
		GPUs80: opts.GPUs80, GPUs40: opts.GPUs40, Apps: opts.Apps,
		Duration: opts.Duration, ArrivalRate: opts.ArrivalRate, Seed: opts.Seed,
	}.WithDefaults()
	type cell struct {
		cfg core.FleetConfig
		res *core.FleetResult
	}
	cells, err := harness.Map(len(fleetLoads), func(i int) (cell, error) {
		cfg := base
		cfg.ArrivalRate = base.ArrivalRate * fleetLoads[i]
		label := fleetLoadLabel(fleetLoads[i])
		cfg.OnCollector = cellCollector(i, "fleet/"+label, opts.Stream)
		cfg.Attach = opts.Attach
		if opts.Attach != nil || opts.Alerts != nil {
			cfg.TSDB = &tsdb.Config{}
		}
		res, err := core.RunFleet(cfg)
		if err != nil {
			return cell{}, fmt.Errorf("fleet %s: %w", label, err)
		}
		return cell{cfg, res}, nil
	})
	if err != nil {
		return err
	}
	for i, c := range cells {
		if i > 0 {
			fmt.Fprintln(bw)
		}
		writeFleetCell(bw, fleetLoads[i], c.cfg, c.res)
	}
	if opts.Alerts != nil {
		for i, c := range cells {
			if err := tsdb.WriteAlertHistory(opts.Alerts, "cell="+fleetLoadLabel(fleetLoads[i])+" ", c.res.TSDB); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// writeFleetCell renders one load cell. Everything here is virtual
// and deterministic in (config, seed).
func writeFleetCell(w io.Writer, load float64, cfg core.FleetConfig, res *core.FleetResult) {
	fmt.Fprintf(w, "config: load=%.1fx gpus=%d (%dx80GB+%dx40GB) apps=%d arrival=%.2f/s lifetime=%s horizon=%s rebalance=%s seed=%d\n",
		load, res.GPUs, cfg.GPUs80, cfg.GPUs40, res.Apps,
		cfg.ArrivalRate, cfg.MeanLifetime, cfg.Duration, cfg.RebalanceEvery, cfg.Seed)
	fmt.Fprintf(w, "virtual: arrivals=%d placed=%d rejected=%d attainment=%.4f\n",
		res.Arrivals, res.Placed, res.Rejected, res.Attainment)
	for _, cs := range res.Classes {
		att := 1.0
		if cs.Arrivals > 0 {
			att = float64(cs.Placed) / float64(cs.Arrivals)
		}
		fmt.Fprintf(w, "virtual: class %-8s arrivals=%-5d placed=%-5d attainment=%.4f\n",
			cs.Class, cs.Arrivals, cs.Placed, att)
	}
	// Fragmentation-over-time, downsampled to at most ten points plus
	// the final sample so the artifact stays readable at any horizon.
	if n := len(res.FragSeries); n > 0 {
		step := (n + 9) / 10
		for i := 0; i < n; i += step {
			writeFleetFragPoint(w, res.FragSeries[i])
		}
		if (n-1)%step != 0 {
			writeFleetFragPoint(w, res.FragSeries[n-1])
		}
	}
	fmt.Fprintf(w, "virtual: rebalances=%d applied=%d moved=%d max_gap=%.4f scratch_infeasible=%d\n",
		res.Rebalances, res.RebalancesApplied, res.Moved, res.MaxGap, res.ScratchInfeasible)
	fmt.Fprintf(w, "virtual: peak_tenants=%d final_tenants=%d final_frag=%.4f evicted=%d makespan=%s events=%d\n",
		res.PeakTenants, res.FinalTenants, res.FinalFrag, res.Evicted, res.Makespan, res.Events)
}

func writeFleetFragPoint(w io.Writer, p core.FleetFragPoint) {
	fmt.Fprintf(w, "virtual: frag t=%-8s frag=%.4f tenants=%-4d mig=%-3d mps=%-3d empty=%d\n",
		p.T, p.Frag, p.Tenants, p.MIG, p.MPS, p.Empty)
}
