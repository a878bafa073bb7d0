package report

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs/tsdb"
)

// AutoscaleOptions parameterizes the autoscaling artifact. Zero values
// take the core.AutoscaleConfig defaults (6 GPUs, two 1h diurnal
// cycles peaking at 4 req/s with a 3× burst).
type AutoscaleOptions struct {
	GPUs    int
	Horizon time.Duration
	Seed    int64
	// Attach forwards to core.AutoscaleConfig.Attach, once per cell
	// under scope "autoscale/<cell>".
	Attach core.AttachFunc
	// Alerts, when set, renders each cell's end-of-run alert-rule
	// history (engine state + resolved incidents, grid order) to this
	// writer. Purely virtual: byte-identical at any -parallel level.
	Alerts io.Writer
}

// autoscaleCells is the artifact's grid: the hybrid autoscaler against
// a trough-static baseline (1 block) and a peak-static baseline (the
// whole pool). staticBlocks < 0 marks the autoscaled cell.
type autoscaleCell struct {
	label        string
	staticBlocks int
}

func autoscaleGrid(gpus int) []autoscaleCell {
	return []autoscaleCell{
		{"autoscaled", 0},
		{"static-1", 1},
		{fmt.Sprintf("static-%d", gpus), gpus},
	}
}

// Autoscale runs the SLO-driven autoscaling experiment — the same
// diurnal, bursty traffic against the hybrid autoscaler and two static
// provisioning baselines — and writes the artifact: per cell the
// config echo, demand/outcome counts, served-latency percentiles, and
// the GPU-seconds economics; then a verdict comparing the autoscaler
// to each baseline on its axis. Every line is virtual —
// byte-identical at any -parallel level.
func Autoscale(w io.Writer, opts AutoscaleOptions) error {
	bw := bufio.NewWriter(w)
	header(bw, "SLO-driven autoscaling — hybrid block scaling + admission control vs static provisioning")
	base := core.AutoscaleConfig{GPUs: opts.GPUs, Seed: opts.Seed}.WithDefaults()
	if opts.Horizon > 0 {
		base.Traffic.Horizon = opts.Horizon
	}
	grid := autoscaleGrid(base.GPUs)
	type cell struct {
		cfg core.AutoscaleConfig
		res *core.AutoscaleResult
	}
	cells, err := harness.Map(len(grid), func(i int) (cell, error) {
		cfg := base
		cfg.StaticBlocks = grid[i].staticBlocks
		label := grid[i].label
		cfg.OnCollector = cellCollector(i, "autoscale/"+label)
		cfg.Attach = opts.Attach
		res, err := core.RunAutoscale(cfg)
		if err != nil {
			return cell{}, fmt.Errorf("autoscale %s: %w", label, err)
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
		writeAutoscaleCell(bw, grid[i].label, c.cfg, c.res)
	}

	auto, trough, peak := cells[0].res, cells[1].res, cells[2].res
	fmt.Fprintln(bw)
	saving := 0.0
	if peak.GPUSeconds > 0 {
		saving = 1 - auto.GPUSeconds/peak.GPUSeconds
	}
	fmt.Fprintf(bw, "virtual: verdict cost        auto=%.0fgpu·s peak-static=%.0fgpu·s saving=%.1f%%\n",
		auto.GPUSeconds, peak.GPUSeconds, 100*saving)
	fmt.Fprintf(bw, "virtual: verdict attainment  auto=%.4f trough-static=%.4f peak-static=%.4f\n",
		auto.Attainment, trough.Attainment, peak.Attainment)
	fmt.Fprintf(bw, "virtual: verdict cold-starts auto=%d amortized=%.1f tasks/start (peak-static %.1f)\n",
		auto.ColdStarts, auto.TasksPerColdStart, peak.TasksPerColdStart)
	if opts.Alerts != nil {
		for i, c := range cells {
			if err := tsdb.WriteAlertHistory(opts.Alerts, "cell="+grid[i].label+" ", c.res.TSDB); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// writeAutoscaleCell renders one cell. Everything here is virtual and
// deterministic in (config, seed).
func writeAutoscaleCell(w io.Writer, label string, cfg core.AutoscaleConfig, res *core.AutoscaleResult) {
	mode := fmt.Sprintf("static blocks=%d", cfg.StaticBlocks)
	if res.Autoscaled {
		mode = fmt.Sprintf("autoscaled blocks=%d..%d", cfg.Policy.MinBlocks, res.Blocks)
	}
	fmt.Fprintf(w, "config: cell=%s %s gpus=%d grant=%s init=%s service=%s slo=%s@%.2f/%s seed=%d\n",
		label, mode, cfg.GPUs, cfg.GrantDelay, cfg.WorkerInit, cfg.ServiceTime,
		cfg.SLOLatency, cfg.SLOTarget, cfg.SLOWindow, cfg.Seed)
	tc := cfg.Traffic
	fmt.Fprintf(w, "config: traffic users=%d peak=%.2f/s period=%s trough=%.2f cutoff=%.2f/s bursts=%d horizon=%s\n",
		tc.Users, float64(tc.Users)*tc.PerUserRate, tc.Period, tc.TroughFrac, tc.Cutoff, len(tc.Bursts), tc.Horizon)
	fmt.Fprintf(w, "virtual: arrivals=%d completed=%d good=%d shed=%d failed=%d attainment=%.4f shed_rate=%.4f\n",
		res.Arrivals, res.Completed, res.Good, res.Shed, res.Failed, res.Attainment, res.ShedRate)
	fmt.Fprintf(w, "virtual: latency p50=%s p95=%s p99=%s max=%s (served only)\n",
		res.Latencies.Percentile(50), res.Latencies.Percentile(95),
		res.Latencies.Percentile(99), res.Latencies.Max())
	fmt.Fprintf(w, "virtual: economics gpu_seconds=%.0f per_good=%.2f cold_starts=%d tasks_per_cold_start=%.1f\n",
		res.GPUSeconds, res.GPUSecondsPerGood, res.ColdStarts, res.TasksPerColdStart)
	fmt.Fprintf(w, "virtual: scaling out=%d in=%d peak_blocks=%d final_blocks=%d makespan=%s events=%d\n",
		res.ScaleOuts, res.ScaleIns, res.PeakBlocks, res.FinalBlocks, res.Makespan, res.Events)
}
