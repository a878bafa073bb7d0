// Package report renders each of the paper's figures and tables from
// fresh simulation runs, as aligned text suitable for terminals and
// for EXPERIMENTS.md. Each ReportX function regenerates one artifact;
// All runs the full evaluation.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/moldesign"
	"repro/internal/rightsize"
	"repro/internal/simgpu"
)

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

func sec(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// Fig1 prints per-convolution-layer GFLOPs for the CNN zoo (the
// series of the paper's Fig. 1), for the requested batch sizes.
func Fig1(w io.Writer, batches []int) error {
	if len(batches) == 0 {
		batches = []int{1}
	}
	header(w, "Figure 1 — per-layer compute variation of image-classification CNNs")
	for _, m := range models.Zoo() {
		prof := m.ConvProfile()
		fmt.Fprintf(w, "\n%s: %d conv layers, %.2f GFLOPs/image, %.1fM params\n",
			m.Name, len(prof), m.PerSampleFLOPs()/1e9, float64(m.TotalParams())/1e6)
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprint(tw, "layer\tname")
		for _, b := range batches {
			fmt.Fprintf(tw, "\tGFLOPs(b=%d)", b)
		}
		fmt.Fprintln(tw)
		for _, p := range prof {
			fmt.Fprintf(tw, "%d\t%s", p.Index, p.Name)
			for _, b := range batches {
				fmt.Fprintf(tw, "\t%.3f", p.GFLOPs*float64(b))
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		min, max := prof[0].GFLOPs, prof[0].GFLOPs
		for _, p := range prof {
			if p.GFLOPs < min {
				min = p.GFLOPs
			}
			if p.GFLOPs > max {
				max = p.GFLOPs
			}
		}
		fmt.Fprintf(w, "layer-to-layer dynamic range: %.1fx (min %.4f, max %.4f GFLOPs)\n", max/min, min, max)
	}
	// Contrast: transformer decode is uniform across depth, which is
	// why a fixed partition size (Fig. 2's knee) suits LLMs.
	spec := models.LLaMa27B()
	prof := spec.DecodeLayerProfile(2)
	min, max := prof[1].GFLOPs, prof[1].GFLOPs
	for _, p := range prof[1 : len(prof)-1] { // skip embed gather & head
		if p.GFLOPs < min {
			min = p.GFLOPs
		}
		if p.GFLOPs > max {
			max = p.GFLOPs
		}
	}
	fmt.Fprintf(w, "\ncontrast — %s decode: %d sublayers, per-layer range only %.1fx: LLM demand is flat,\n",
		spec.Name, len(prof), max/min)
	fmt.Fprintln(w, "so one right-sized partition serves the whole forward pass.")
	return nil
}

// Fig2 prints the LLaMa-2 latency-vs-SMs sweep plus CPU baselines.
func Fig2(w io.Writer, percents []int) error {
	if len(percents) == 0 {
		percents = []int{5, 10, 15, 19, 25, 37, 50, 75, 100}
	}
	res, err := core.Fig2Sweep(percents)
	if err != nil {
		return err
	}
	header(w, "Figure 2 — LLaMa-2 inference runtime vs #SMs under CUDA MPS (fp32)")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "model\tMPS %\t#SMs\tlatency (s, 20-token completion)")
	for _, p := range res.Points {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", p.Model, p.Percent, p.SMs, sec(p.Latency))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// Fixed order (not map iteration) so output is byte-reproducible.
	for _, model := range []string{"llama2-7b", "llama2-13b"} {
		fmt.Fprintf(w, "CPU baseline %s: %s s\n", model, sec(res.CPUBaselines[model]))
	}
	fmt.Fprintln(w, "observation: latency stops improving beyond ~20 SMs — the model cannot use more.")
	return nil
}

// Fig3 runs the molecular-design campaign and prints the phase
// summary, Gantt chart, and GPU idle statistics.
func Fig3(w io.Writer, cfg moldesign.Config) error {
	header(w, "Figure 3 — molecular-design campaign task timeline and GPU idle time")
	res, err := core.RunMolDesign(cfg)
	if err != nil {
		return err
	}
	rep := res.Report
	fmt.Fprintf(w, "campaign: %d initial + %d rounds × %d batch; dataset %d; makespan %s s\n",
		cfg.InitialPool, cfg.Rounds, cfg.BatchSize, rep.Dataset, sec(res.Makespan))
	fmt.Fprintf(w, "best IP found %.3f (initial random best %.3f, pool mean %.3f); emulator RMSE %.3f\n",
		rep.BestIP, rep.InitialBestIP, rep.PoolMeanIP, rep.FinalRMSE)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\ttasks\tbusy (s)\tsummed task time (s)")
	for _, s := range res.Phases {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", s.Phase, s.Tasks, sec(s.Busy), sec(s.Summed))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	writeFig3Failed(w, "", res)
	fmt.Fprintf(w, "GPU busy fraction: %.0f%% (%d idle gaps — the \"white lines\" of Fig. 3)\n",
		res.GPUBusyFraction*100, res.GPUIdleGaps)
	fmt.Fprintln(w, "\ntimeline (S=simulation on CPU workers, T=training, I=inference on the GPU worker):")
	fmt.Fprint(w, Fig3Gantt(res, 100))
	fmt.Fprintf(w, "%10s  |%s| busy SMs (0..%d)\n", "gpu util",
		sparkline(res.DeviceBusy, res.Makespan, 100, float64(res.DeviceSMs)), res.DeviceSMs)
	// The paper's remark under Fig. 3: pipelining raises utilization.
	piped, err := core.RunMolDesignPipelined(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\npipelined variant (paper: \"pipe-lining ... will yield higher accelerator utilization\"):\n")
	fmt.Fprintf(w, "  makespan %s s → %s s (−%.0f%%); GPU busy %.0f%% → %.0f%%; same %d simulations, best IP %.3f\n",
		sec(res.Makespan), sec(piped.Makespan),
		(1-piped.Makespan.Seconds()/res.Makespan.Seconds())*100,
		res.GPUBusyFraction*100, piped.GPUBusyFraction*100,
		piped.Report.Dataset, piped.Report.BestIP)
	writeFig3Failed(w, "  ", piped)
	return nil
}

// writeFig3Failed prints, when the campaign lost tasks for good, how
// many per phase; without fault injection it prints nothing.
func writeFig3Failed(w io.Writer, indent string, res *core.Fig3Result) {
	if res.Failed == 0 {
		return
	}
	fmt.Fprintf(w, "%slost tasks counted as failed: %d (", indent, res.Failed)
	for i, ph := range moldesign.Phases {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "%s %d", ph, res.Report.Failed[ph])
	}
	fmt.Fprintln(w, ")")
}

// Fig3Gantt renders the campaign's task timeline as an ASCII chart of
// width columns scaled to the latest run end: one row per phase,
// sorted by name, marked with the phase's upper-case initial where a
// task ran and '.' where none did.
func Fig3Gantt(res *core.Fig3Result, width int) string {
	var end time.Duration
	for _, s := range res.Runs {
		end = max(end, s.End)
	}
	if end == 0 {
		return "(empty trace)\n"
	}
	rows := map[string][]byte{}
	var order []string
	for _, s := range res.Runs {
		phase := moldesign.Phase(s.Attr("app"))
		row, ok := rows[phase]
		if !ok {
			row = []byte(strings.Repeat(".", width))
			rows[phase] = row
			order = append(order, phase)
		}
		lo := int(float64(s.Start) / float64(end) * float64(width))
		hi := int(float64(s.End) / float64(end) * float64(width))
		if hi == lo {
			hi = lo + 1
		}
		glyph := strings.ToUpper(phase)[0]
		for i := lo; i < hi && i < width; i++ {
			row[i] = glyph
		}
	}
	sort.Strings(order)
	labelW := 0
	for _, k := range order {
		labelW = max(labelW, len(k))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s  |%s| 0 .. %s\n", labelW, "", strings.Repeat("-", width), end.Round(time.Millisecond))
	for _, k := range order {
		fmt.Fprintf(&b, "%*s  |%s|\n", labelW, k, rows[k])
	}
	return b.String()
}

// sparkline renders a step series (busy SMs over time) as one row of
// width block glyphs over [0, to), scaled to full, to sit under a
// Fig3Gantt chart of the same width.
func sparkline(s *metrics.StepSeries, to time.Duration, width int, full float64) string {
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	row := make([]rune, width)
	for i := range row {
		a := time.Duration(float64(to) * float64(i) / float64(width))
		b := time.Duration(float64(to) * float64(i+1) / float64(width))
		idx := 0
		if full > 0 {
			idx = int(s.Mean(a, b) / full * float64(len(glyphs)-1))
		}
		row[i] = glyphs[min(len(glyphs)-1, max(0, idx))]
	}
	return string(row)
}

// Fig45 runs the multiplexed-vs-non-multiplexed matrix and prints
// both the completion-time figure (Fig. 4) and the latency figure
// (Fig. 5), plus the derived headline claims.
func Fig45(w io.Writer, completions int) error {
	if completions <= 0 {
		completions = 100
	}
	header(w, "Figures 4 & 5 — 100 LLaMa-2-7B completions under time-sharing, MPS, and MIG")
	type cell = *core.MultiplexResult
	modes := []core.Mode{core.ModeTimeshare, core.ModeMPS, core.ModeMIG}
	// The 3 modes × 4 process counts are 12 independent simulations —
	// run the grid cells in parallel and index results by position.
	const procsPerMode = 4
	cells, err := harness.Map(len(modes)*procsPerMode, func(i int) (cell, error) {
		m, n := modes[i/procsPerMode], i%procsPerMode+1
		r, err := core.RunMultiplex(core.MultiplexConfig{Mode: m, Processes: n, Completions: completions})
		if err != nil {
			return nil, fmt.Errorf("report: %s n=%d: %w", m, n, err)
		}
		return r, nil
	})
	if err != nil {
		return err
	}
	results := map[core.Mode]map[int]cell{}
	for i, r := range cells {
		m, n := modes[i/procsPerMode], i%procsPerMode+1
		if results[m] == nil {
			results[m] = map[int]cell{}
		}
		results[m][n] = r
	}
	fmt.Fprintf(w, "\nFig 4 — total task completion time (s) for %d completions:\n", completions)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "processes\ttimeshare\tMPS (equal %)\tMIG")
	for n := 1; n <= 4; n++ {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\n", n,
			sec(results[core.ModeTimeshare][n].Makespan),
			sec(results[core.ModeMPS][n].Makespan),
			sec(results[core.ModeMIG][n].Makespan))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nFig 5 — average per-inference latency (s):")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "processes\ttimeshare\tMPS (equal %)\tMIG")
	for n := 1; n <= 4; n++ {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\n", n,
			sec(results[core.ModeTimeshare][n].MeanLatency()),
			sec(results[core.ModeMPS][n].MeanLatency()),
			sec(results[core.ModeMIG][n].MeanLatency()))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	single := results[core.ModeTimeshare][1]
	mps4 := results[core.ModeMPS][4]
	ts4 := results[core.ModeTimeshare][4]
	fmt.Fprintf(w, "\nheadline claims (paper → measured):\n")
	fmt.Fprintf(w, "  completion time, 4-way MPS vs 1 process: −60%% → −%.0f%%\n",
		(1-mps4.Makespan.Seconds()/single.Makespan.Seconds())*100)
	fmt.Fprintf(w, "  throughput, 4-way MPS vs 1 process: 2.5x → %.2fx\n",
		mps4.Throughput/single.Throughput)
	fmt.Fprintf(w, "  latency, 4-way MPS vs 4-way timeshare: −44%% → −%.0f%%\n",
		(1-mps4.MeanLatency().Seconds()/ts4.MeanLatency().Seconds())*100)
	fmt.Fprintf(w, "  GPU utilization at 4 processes: timeshare %.0f%%, MPS %.0f%%, MIG %.0f%%\n",
		ts4.Utilization*100, mps4.Utilization*100, results[core.ModeMIG][4].Utilization*100)
	return nil
}

// Table1 prints the quantified multiplexing-technique comparison.
func Table1(w io.Writer) error {
	header(w, "Table 1 — GPU multiplexing techniques, quantified on a common 4-tenant burst")
	rows, err := core.RunTable1()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "technique\tutilization\tthroughput (req/s)\tmean latency (s)\tvictim CoV\tctx switches\treconfig (s)\tmem isolation\tsoftware")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f%%\t%.3f\t%s\t%.3f\t%d\t%s\t%v\t%s\n",
			r.Technique, r.Utilization*100, r.Throughput, sec(r.MeanLatency),
			r.VictimCoV, r.ContextSwitches, sec(r.ReconfigDowntime), r.MemoryIsolated, r.Software)
	}
	return tw.Flush()
}

// ColdStart prints the §6 cold-start breakdown.
func ColdStart(w io.Writer) error {
	header(w, "§6 — GPU serverless cold-start breakdown")
	rows, err := core.RunColdStart(2 * time.Second)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tfunction init (s)\tcontext init (s)\tmodel load (s)\ttotal (s)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", r.Scenario,
			sec(r.WorkerInit), sec(r.ContextInit), sec(r.ModelLoad), sec(r.Total))
	}
	return tw.Flush()
}

// Reconfig prints the §6/§7 re-partitioning costs including the
// weight-cache ablation.
func Reconfig(w io.Writer) error {
	header(w, "§6/§7 — re-partitioning downtime (LLaMa-2-7B fp32)")
	rows, err := core.RunReconfig(2 * time.Second)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "approach\tdowntime (s)\tnote")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.Approach, sec(r.Downtime), r.Note)
	}
	return tw.Flush()
}

// Rightsize prints the §7 right-sizing study: measured sweep, knee,
// recommendation, and the static estimator's agreement.
func Rightsize(w io.Writer) error {
	header(w, "§7 — right-sizing a GPU partition for LLaMa-2-7B")
	spec := simgpu.A100SXM480GB()
	cfg := llm.LLaMa27B()
	curve, err := rightsize.Sweep(spec.SMs, []int{5, 10, 15, 19, 25, 37, 50, 75, 100},
		func(pct int) (time.Duration, error) { return core.Fig2SinglePoint(cfg, pct) })
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "#SMs\tMPS %\tlatency (s)")
	for _, p := range curve {
		fmt.Fprintf(tw, "%d\t%d\t%s\n", p.SMs, p.Percent, sec(p.Latency))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	rec, err := rightsize.Recommend(spec, curve, 0.05, cfg.FootprintBytes())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "knee: %d SMs (latency %s s)\n", rec.KneeSMs, sec(rec.KneeLatency))
	fmt.Fprintf(w, "recommendation: MPS %d%%, MIG profile %s, up to %d tenants per GPU\n",
		rec.MPSPercent, rec.MIGProfile, rec.TenantsPerGPU)
	// Static estimator from the decode kernel stream.
	kernels := []simgpu.Kernel{{
		FLOPs:  cfg.TokenComputeTime.Seconds() * float64(cfg.SaturationSMs) * spec.PerSMFLOPS(),
		Bytes:  cfg.TokenMemFraction * cfg.TokenComputeTime.Seconds() * spec.MemBW,
		MaxSMs: cfg.SaturationSMs,
	}}
	static := rightsize.DemandSMs(spec, kernels, 0.9)
	fmt.Fprintf(w, "static estimate from kernel stream: %d SMs (measured knee: %d)\n", static, rec.KneeSMs)
	return nil
}

// All regenerates every artifact in paper order. Artifacts render
// concurrently (each into its own buffer, one Env per scenario inside)
// and are written in paper order, so the output is byte-identical to
// running them sequentially.
func All(w io.Writer, completions int) error {
	return harness.Render(w,
		harness.Section{Name: "fig1", Render: func(w io.Writer) error { return Fig1(w, []int{1, 8, 32}) }},
		harness.Section{Name: "fig2", Render: func(w io.Writer) error { return Fig2(w, nil) }},
		harness.Section{Name: "fig3", Render: func(w io.Writer) error { return Fig3(w, moldesign.DefaultConfig()) }},
		harness.Section{Name: "fig45", Render: func(w io.Writer) error { return Fig45(w, completions) }},
		harness.Section{Name: "table1", Render: Table1},
		harness.Section{Name: "coldstart", Render: ColdStart},
		harness.Section{Name: "reconfig", Render: Reconfig},
		harness.Section{Name: "rightsize", Render: Rightsize},
		harness.Section{Name: "ablations", Render: Ablations},
		harness.Section{Name: "mixed", Render: MixedTenancy},
		harness.Section{Name: "openloop", Render: OpenLoop},
	)
}
