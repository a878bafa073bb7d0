// Command gpufaas runs ad-hoc scenarios on the partitioning-enabled
// FaaS platform: LLaMa multiplexing with a chosen technique, the
// molecular-design campaign, or an SM sweep.
//
// Usage:
//
//	gpufaas multiplex -mode mps -procs 4 -completions 100
//	gpufaas moldesign -rounds 4 -batch 16
//	gpufaas sweep -percents 5,10,20,50,100
//	gpufaas repart -spec policy=knee,interval=10s
//	gpufaas fleet -gpus80 2 -gpus40 1 -demands "llama:30:20;resnet:10:1"
//	gpufaas fleet -gpus80 64 -gpus40 64 -apps 56 -horizon 10m
//	gpufaas autoscale -gpus 6 -horizon 2h -serve :9190
//	gpufaas tracediff -a a.json -b b.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/moldesign"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/tsdb"
	"repro/internal/repart"
	"repro/internal/report"
	"repro/internal/rightsize"
	"repro/internal/simgpu"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "multiplex":
		err = runMultiplex(os.Args[2:])
	case "moldesign":
		err = runMolDesign(os.Args[2:])
	case "sweep":
		err = runSweep(os.Args[2:])
	case "pack":
		err = runPack(os.Args[2:])
	case "fleet":
		err = runFleet(os.Args[2:])
	case "autoscale":
		err = runAutoscaleCell(os.Args[2:])
	case "repart":
		err = runRepart(os.Args[2:])
	case "tracediff":
		err = cli.TraceDiff("gpufaas", os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpufaas:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gpufaas <multiplex|moldesign|sweep|pack|fleet|autoscale|repart|tracediff> [flags]`)
	os.Exit(2)
}

// writeArtifact creates path and hands the file to fn.
func writeArtifact(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeAttribution exports the attribution artifacts the flags request
// from one run's collector.
func writeAttribution(tel *cli.Flags, c *obs.Collector) error {
	rep := analyze.Analyze(c)
	if tel.Attrib != "" {
		if err := writeArtifact(tel.Attrib, func(w *os.File) error {
			return rep.WriteJSON(w)
		}); err != nil {
			return err
		}
	}
	if tel.Flame != "" {
		if err := writeArtifact(tel.Flame, func(w *os.File) error {
			return analyze.WriteFolded(w, rep)
		}); err != nil {
			return err
		}
	}
	if tel.Alerts != "" {
		if err := writeArtifact(tel.Alerts, func(w *os.File) error {
			return analyze.WriteAlerts(w, c)
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeExports writes a run's Chrome trace and Prometheus metrics;
// either path may be empty.
func writeExports(tracePath, metricsPath string, c *obs.Collector) error {
	if tracePath != "" {
		if err := writeArtifact(tracePath, func(w *os.File) error {
			return obs.WriteChromeTrace(w, c)
		}); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		return writeArtifact(metricsPath, func(w *os.File) error {
			return obs.WritePrometheus(w, c)
		})
	}
	return nil
}

func runMultiplex(args []string) error {
	fs := flag.NewFlagSet("multiplex", flag.ExitOnError)
	mode := fs.String("mode", "mps", "timeshare | mps-default | mps | mig | vgpu")
	procs := fs.Int("procs", 4, "concurrent model processes (1-4)")
	completions := fs.Int("completions", 100, "total completions")
	tokens := fs.Int("tokens", 20, "output tokens per completion")
	chaos := fs.String("chaos", "", "seeded fault-injection spec, e.g. seed=7,rate=0.5")
	tel := cli.Bind(fs, "gpufaas", cli.All|cli.Single)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if tel.Stream && tel.Analyzes() {
		return fmt.Errorf("-stream is incompatible with -attrib/-flame/-alerts here; use paperbench -stream for streamed attribution")
	}
	tel.Start()
	cfg := core.MultiplexConfig{
		Mode:         core.Mode(*mode),
		Processes:    *procs,
		Completions:  *completions,
		OutputTokens: *tokens,
		Observe:      tel.Trace != "" || tel.Metrics != "" || tel.Analyzes(),
		SLO:          tel.SLO,
		TSDB:         tel.TSDB(),
		Attach:       tel.Attach(),
	}
	scope := fmt.Sprintf("multiplex/%s/p%d", cfg.Mode, cfg.Processes)
	// Streaming trace: the section renders to the file as spans end;
	// only the envelope is added afterwards via the stream splice.
	var streamFile *os.File
	var streamBuf *bufio.Writer
	var streamSec *obs.TraceSection
	if tel.Stream && tel.Trace != "" {
		f, err := os.CreateTemp("", "gpufaas-*.trace")
		if err != nil {
			return err
		}
		defer func() { f.Close(); os.Remove(f.Name()) }()
		streamFile = f
		streamBuf = bufio.NewWriterSize(f, 1<<20)
		cfg.OnCollector = func(c *obs.Collector) {
			streamSec = obs.NewTraceSection(streamBuf, 1, scope)
			c.SetSink(streamSec)
			c.SetSampleMod(tel.Sample)
		}
	}
	if *chaos != "" {
		spec, err := fault.ParseSpec(*chaos)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		cfg.Chaos = &spec
	}
	r, err := core.RunMultiplex(cfg)
	if err != nil {
		return err
	}
	r.Obs.Close() // a streaming run flushes its parked daemon spans
	snapshotTrace := tel.Trace
	if streamSec != nil {
		snapshotTrace = ""
		if err := streamSec.Err(); err != nil {
			return err
		}
		if err := streamBuf.Flush(); err != nil {
			return err
		}
		if err := writeArtifact(tel.Trace, func(w *os.File) error {
			if _, err := streamFile.Seek(0, io.SeekStart); err != nil {
				return err
			}
			ts := obs.NewTraceStream(w)
			if err := ts.Append(bufio.NewReaderSize(streamFile, 1<<20)); err != nil {
				return err
			}
			return ts.Close()
		}); err != nil {
			return err
		}
	}
	if err := writeExports(snapshotTrace, tel.Metrics, r.Obs); err != nil {
		return err
	}
	if tel.Analyzes() {
		r.Obs.SetScope(scope)
		if err := writeAttribution(tel, r.Obs); err != nil {
			return err
		}
	}
	fmt.Printf("mode=%s procs=%d completions=%d\n", r.Mode, r.Processes, r.Completions)
	fmt.Printf("  preload (cold start, excluded): %.2fs\n", r.PreloadTime.Seconds())
	fmt.Printf("  makespan:      %.2fs\n", r.Makespan.Seconds())
	fmt.Printf("  throughput:    %.3f completions/s\n", r.Throughput)
	fmt.Printf("  latency mean:  %.2fs  p50 %.2fs  p95 %.2fs  max %.2fs\n",
		r.Latencies.Mean().Seconds(), r.Latencies.Percentile(50).Seconds(),
		r.Latencies.Percentile(95).Seconds(), r.Latencies.Max().Seconds())
	fmt.Printf("  utilization:   %.0f%%\n", r.Utilization*100)
	if r.Checker != nil {
		fmt.Printf("  chaos:         %d faults injected, %d completions failed terminally (outcomes %v)\n",
			r.Faults, r.Failed, r.Checker.Outcomes())
		if err := r.Checker.Err(); err != nil {
			return fmt.Errorf("task-state invariant violated: %w", err)
		}
	}
	tel.Linger()
	return nil
}

func runMolDesign(args []string) error {
	fs := flag.NewFlagSet("moldesign", flag.ExitOnError)
	rounds := fs.Int("rounds", 4, "active-learning rounds")
	batch := fs.Int("batch", 16, "simulations per round")
	initial := fs.Int("initial", 32, "initial random simulations")
	pool := fs.Int("pool", 4000, "candidates scored per round")
	seed := fs.Int64("seed", 1, "campaign seed")
	gantt := fs.Bool("gantt", true, "print the phase timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := moldesign.DefaultConfig()
	cfg.Rounds = *rounds
	cfg.BatchSize = *batch
	cfg.InitialPool = *initial
	cfg.CandidatePool = *pool
	cfg.Seed = *seed
	res, err := core.RunMolDesign(cfg)
	if err != nil {
		return err
	}
	rep := res.Report
	fmt.Printf("campaign finished in %.1fs (virtual): dataset=%d best IP=%.3f (initial %.3f, pool mean %.3f)\n",
		res.Makespan.Seconds(), rep.Dataset, rep.BestIP, rep.InitialBestIP, rep.PoolMeanIP)
	for i, m := range rep.RoundBatchMeanIP {
		fmt.Printf("  round %d selected-batch mean IP: %.3f\n", i+1, m)
	}
	fmt.Printf("GPU busy %.0f%% with %d idle gaps\n", res.GPUBusyFraction*100, res.GPUIdleGaps)
	if *gantt {
		fmt.Print(res.Trace.Gantt(trace.GanttOpts{Width: 100, GroupBy: "kind", Glyphs: map[string]rune{
			"simulation": 'S', "training": 'T', "inference": 'I',
		}}))
	}
	return nil
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	percentsArg := fs.String("percents", "5,10,15,19,25,37,50,75,100", "MPS percentages")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var percents []int
	for _, p := range strings.Split(*percentsArg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return fmt.Errorf("bad percentage %q", p)
		}
		percents = append(percents, v)
	}
	return report.Fig2(os.Stdout, percents)
}

// runRepart runs the phase-shifted two-tenant scenario once, under a
// static plan (-static) or under the online repartitioning controller
// (-repart SPEC, or the controller defaults when both flags are unset).
func runRepart(args []string) error {
	fs := flag.NewFlagSet("repart", flag.ExitOnError)
	specArg := fs.String("spec", "", "controller spec, e.g. policy=knee,interval=10s,delta=5")
	static := fs.String("static", "", "run a static baseline instead: timeshare | mps-default | mps | mig | vgpu")
	tel := cli.Bind(fs, "gpufaas", cli.Exports|cli.Single)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specArg != "" && *static != "" {
		return fmt.Errorf("-spec and -static are mutually exclusive")
	}
	tel.Start()
	cfg := core.PhaseShiftConfig{
		Observe: tel.Trace != "" || tel.Metrics != "" || tel.Analyzes(),
		SLO:     tel.SLO,
		TSDB:    tel.TSDB(),
		Attach:  tel.Attach(),
	}
	if *static != "" {
		cfg.Mode = core.Mode(*static)
	} else {
		spec, err := repart.ParseSpec(*specArg)
		if err != nil {
			return fmt.Errorf("-spec: %w", err)
		}
		cfg.Repart = &spec
	}
	r, err := core.RunPhaseShift(cfg)
	if err != nil {
		return err
	}
	r.Obs.Close() // a streaming run flushes its parked daemon spans
	if err := writeExports(tel.Trace, tel.Metrics, r.Obs); err != nil {
		return err
	}
	if tel.Analyzes() {
		scope := "repart/static-" + string(r.Mode)
		if r.Repart {
			scope = "repart/controller"
		}
		r.Obs.SetScope(scope)
		if err := writeAttribution(tel, r.Obs); err != nil {
			return err
		}
	}
	plan := "static " + string(r.Mode)
	if r.Repart {
		plan = "online controller"
	}
	fmt.Printf("plan=%s\n", plan)
	fmt.Printf("  preload (cold start, excluded): %.2fs\n", r.PreloadTime.Seconds())
	fmt.Printf("  makespan:      %.2fs\n", r.Makespan.Seconds())
	fmt.Printf("  latency mean:  %.2fs  p50 %.2fs  p95 %.2fs  max %.2fs\n",
		r.Latencies.Mean().Seconds(), r.Latencies.Percentile(50).Seconds(),
		r.Latencies.Percentile(95).Seconds(), r.Latencies.Max().Seconds())
	fmt.Printf("  transitions:   %d\n", r.Transitions)
	fmt.Printf("  weight cache:  %d hits, %d misses\n", r.CacheHits, r.CacheMisses)
	tel.Linger()
	return nil
}

// runPack plans a partitioning for a set of tenant demands:
//
//	gpufaas pack -spec a100-80gb -tenant llama:21:18 -tenant resnet:10:1
//
// Each -tenant is name:SMs:memGB. Both an MPS percentage plan and a
// placement-validated MIG layout are printed.
func runPack(args []string) error {
	fs := flag.NewFlagSet("pack", flag.ExitOnError)
	specName := fs.String("spec", "a100-80gb", "device spec (a100-40gb | a100-80gb)")
	var tenants tenantFlags
	fs.Var(&tenants, "tenant", "tenant demand as name:SMs:memGB (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(tenants) == 0 {
		return fmt.Errorf("pack needs at least one -tenant name:SMs:memGB")
	}
	var spec simgpu.DeviceSpec
	switch *specName {
	case "a100-40gb":
		spec = simgpu.A100SXM440GB()
	case "a100-80gb":
		spec = simgpu.A100SXM480GB()
	default:
		return fmt.Errorf("unknown spec %q", *specName)
	}
	if mps, err := rightsize.PackMPS(spec, tenants); err != nil {
		fmt.Printf("MPS plan: infeasible: %v\n", err)
	} else {
		fmt.Printf("MPS plan (total %d%%, oversubscribed=%v):\n", mps.TotalPercent, mps.Oversubscribed)
		for _, a := range mps.Assignments {
			fmt.Printf("  %-12s CUDA_MPS_ACTIVE_THREAD_PERCENTAGE=%d\n", a.Tenant, a.Percent)
		}
	}
	if mig, err := rightsize.PackMIG(spec, tenants); err != nil {
		fmt.Printf("MIG plan: infeasible: %v\n", err)
	} else {
		fmt.Printf("MIG plan (layout %v):\n", mig.Layout)
		for _, a := range mig.Assignments {
			fmt.Printf("  %-12s %s\n", a.Tenant, a.Profile)
		}
	}
	return nil
}

// runFleet drives the fleet-layer packer directly. With -demands it
// packs a fixed tenant set onto the inventory and prints each granted
// segment plus the per-GPU fragmentation; without it, it runs the
// seeded churn scenario and prints the admission/fragmentation
// summary.
//
//	gpufaas fleet -gpus80 2 -gpus40 1 -demands "llama:30:20;resnet:10:1"
//	gpufaas fleet -gpus80 64 -gpus40 64 -apps 56 -horizon 10m -serve :9190
func runFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	gpus80 := fs.Int("gpus80", 0, "A100-80GB parts (default: 2 with -demands, 64 for the scenario)")
	gpus40 := fs.Int("gpus40", 0, "A100-40GB parts (default: 1 with -demands, 64 for the scenario)")
	demands := fs.String("demands", "", `pack a fixed tenant set: "name:SMs[:memGB];..." (e.g. "llama:30:20;resnet:10:1")`)
	apps := fs.Int("apps", 0, "scenario: distinct applications (default 56)")
	horizon := fs.Duration("horizon", 0, "scenario: arrival horizon on the virtual clock (default 10m)")
	rate := fs.Float64("rate", 0, "scenario: tenant arrivals per second (default 2.0)")
	seed := fs.Int64("seed", 0, "scenario: churn RNG seed (default 1)")
	tel := cli.Bind(fs, "gpufaas", cli.RulePack|cli.Single)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *demands != "" {
		return runFleetPack(*gpus80, *gpus40, *demands)
	}
	tel.Start()
	cfg := core.FleetConfig{
		GPUs80: *gpus80, GPUs40: *gpus40, Apps: *apps,
		Duration: *horizon, ArrivalRate: *rate, Seed: *seed,
		TSDB: tel.TSDB(), Attach: tel.Attach(),
	}
	r, err := core.RunFleet(cfg)
	if err != nil {
		return err
	}
	r.Obs.Close() // a streaming run flushes its parked daemon spans
	if tel.Alerts != "" {
		if err := writeArtifact(tel.Alerts, func(w *os.File) error {
			return tsdb.WriteAlertHistory(w, "", r.TSDB)
		}); err != nil {
			return err
		}
	}
	fmt.Printf("fleet: %d GPUs, %d apps, horizon %s, seed %d\n",
		r.GPUs, r.Apps, cfg.WithDefaults().Duration, cfg.WithDefaults().Seed)
	fmt.Printf("  arrivals:      %d placed, %d rejected of %d (attainment %.1f%%)\n",
		r.Placed, r.Rejected, r.Arrivals, r.Attainment*100)
	for _, cs := range r.Classes {
		att := 100.0
		if cs.Arrivals > 0 {
			att = 100 * float64(cs.Placed) / float64(cs.Arrivals)
		}
		fmt.Printf("    %-9s %d/%d (%.1f%%)\n", cs.Class+":", cs.Placed, cs.Arrivals, att)
	}
	fmt.Printf("  peak tenants:  %d\n", r.PeakTenants)
	if len(r.FragSeries) > 0 {
		var peak float64
		for _, p := range r.FragSeries {
			if p.Frag > peak {
				peak = p.Frag
			}
		}
		last := r.FragSeries[len(r.FragSeries)-1]
		fmt.Printf("  fragmentation: peak %.4f, at horizon %.4f (%d MIG / %d MPS / %d empty GPUs)\n",
			peak, last.Frag, last.MIG, last.MPS, last.Empty)
	}
	fmt.Printf("  rebalances:    %d (%d applied, %d tenants moved, max gap %.4f, %d scratch-infeasible)\n",
		r.Rebalances, r.RebalancesApplied, r.Moved, r.MaxGap, r.ScratchInfeasible)
	fmt.Printf("  drain:         %d evicted, final frag %.4f, makespan %s\n",
		r.Evicted, r.FinalFrag, r.Makespan.Round(time.Millisecond))
	tel.Linger()
	return nil
}

// runAutoscaleCell runs one serving cell of the SLO-driven autoscaling
// scenario: diurnal, bursty traffic against either the hybrid
// autoscaler (default) or a static block count (-static N), printing
// demand, latency, economics, and scaling activity.
//
//	gpufaas autoscale -gpus 6 -horizon 2h -serve :9190
//	gpufaas autoscale -gpus 6 -static 6 -horizon 2h
func runAutoscaleCell(args []string) error {
	fs := flag.NewFlagSet("autoscale", flag.ExitOnError)
	gpus := fs.Int("gpus", 0, "provider pool size (default 6)")
	static := fs.Int("static", 0, "provision this many blocks statically instead of autoscaling")
	horizon := fs.Duration("horizon", 0, "traffic horizon on the virtual clock (default 2h)")
	hold := fs.Duration("hold", 0, "keep the cell open this long after drain (observes scale-to-zero)")
	seed := fs.Int64("seed", 0, "traffic and shed RNG seed (default 1)")
	tel := cli.Bind(fs, "gpufaas", cli.RulePack|cli.Single)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tel.Start()
	cfg := core.AutoscaleConfig{
		GPUs: *gpus, StaticBlocks: *static, Seed: *seed, DrainHold: *hold,
		Attach: tel.Attach(),
	}.WithDefaults()
	if *horizon > 0 {
		cfg.Traffic.Horizon = *horizon
	}
	r, err := core.RunAutoscale(cfg)
	if err != nil {
		return err
	}
	r.Obs.Close() // a streaming run flushes its parked daemon spans
	if tel.Alerts != "" {
		// The autoscale cell always carries a series store, so the alert
		// history is available with or without -serve.
		if err := writeArtifact(tel.Alerts, func(w *os.File) error {
			return tsdb.WriteAlertHistory(w, "", r.TSDB)
		}); err != nil {
			return err
		}
	}
	mode := fmt.Sprintf("static %d blocks", cfg.StaticBlocks)
	if r.Autoscaled {
		mode = fmt.Sprintf("autoscaled %d..%d blocks", cfg.Policy.MinBlocks, r.Blocks)
	}
	fmt.Printf("autoscale: %d GPUs, %s, horizon %s, seed %d\n",
		cfg.GPUs, mode, cfg.Traffic.Horizon, cfg.Seed)
	fmt.Printf("  traffic:     %d users, peak %.2f req/s, period %s, %d bursts\n",
		cfg.Traffic.Users, float64(cfg.Traffic.Users)*cfg.Traffic.PerUserRate,
		cfg.Traffic.Period, len(cfg.Traffic.Bursts))
	fmt.Printf("  demand:      %d arrivals, %d completed, %d good, %d shed, %d failed\n",
		r.Arrivals, r.Completed, r.Good, r.Shed, r.Failed)
	fmt.Printf("  slo:         %s@%.2f -> attainment %.1f%%, shed rate %.1f%%\n",
		cfg.SLOLatency, cfg.SLOTarget, r.Attainment*100, r.ShedRate*100)
	fmt.Printf("  latency:     p50 %s, p95 %s, p99 %s (served only)\n",
		r.Latencies.Percentile(50).Round(time.Millisecond),
		r.Latencies.Percentile(95).Round(time.Millisecond),
		r.Latencies.Percentile(99).Round(time.Millisecond))
	fmt.Printf("  economics:   %.0f GPU-seconds, %.2f per good task, %d cold starts (%.1f tasks each)\n",
		r.GPUSeconds, r.GPUSecondsPerGood, r.ColdStarts, r.TasksPerColdStart)
	fmt.Printf("  scaling:     %d out, %d in, peak %d blocks, final %d\n",
		r.ScaleOuts, r.ScaleIns, r.PeakBlocks, r.FinalBlocks)
	fmt.Printf("  makespan:    %s (%d events)\n", r.Makespan.Round(time.Millisecond), r.Events)
	tel.Linger()
	return nil
}

// runFleetPack is the -demands mode: a one-shot greedy pack with the
// granted segments and the fragmentation they leave behind.
func runFleetPack(n80, n40 int, spec string) error {
	if n80 <= 0 && n40 <= 0 {
		n80, n40 = 2, 1
	}
	ds, err := fleet.ParseDemands(spec)
	if err != nil {
		return fmt.Errorf("-demands: %w", err)
	}
	var specs []simgpu.DeviceSpec
	for i := 0; i < n80; i++ {
		specs = append(specs, simgpu.A100SXM480GB())
	}
	for i := 0; i < n40; i++ {
		specs = append(specs, simgpu.A100SXM440GB())
	}
	cl, err := fleet.New(fleet.Config{Inventory: fleet.NewInventory(specs...)})
	if err != nil {
		return err
	}
	fmt.Printf("inventory: %d GPUs (%dx80GB + %dx40GB)\n", n80+n40, n80, n40)
	for _, d := range ds {
		p, err := cl.Place(d)
		if err != nil {
			fmt.Printf("  %-12s unplaceable: %v\n", d.Tenant, err)
			continue
		}
		seg := p.Segment
		switch seg.Kind {
		case fleet.SegMIG:
			fmt.Printf("  %-12s %s  %s@slice%d  %d%% (%d SMs, %.1f GB)\n",
				d.Tenant, seg.GPU, seg.Profile, seg.Start, seg.Percent, seg.SMs, float64(seg.MemBytes)/1e9)
		default:
			fmt.Printf("  %-12s %s  whole-GPU MPS  %d%% (%d SMs, %.1f GB)\n",
				d.Tenant, seg.GPU, seg.Percent, seg.SMs, float64(seg.MemBytes)/1e9)
		}
	}
	rep := cl.Fragmentation()
	for _, g := range rep.PerGPU {
		if g.Mode == "empty" {
			continue
		}
		fmt.Printf("fragmentation: %-6s %-5s %.4f\n", g.ID, g.Mode, g.Frag)
	}
	fmt.Printf("fragmentation: fleet mean %.4f over %d GPUs\n", rep.Fleet, len(rep.PerGPU))
	return nil
}

// tenantFlags parses repeated -tenant name:SMs:memGB flags.
type tenantFlags []rightsize.TenantDemand

func (t *tenantFlags) String() string { return fmt.Sprint([]rightsize.TenantDemand(*t)) }

func (t *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return fmt.Errorf("want name:SMs:memGB, got %q", v)
	}
	sms, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("bad SMs in %q", v)
	}
	gb, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return fmt.Errorf("bad memGB in %q", v)
	}
	*t = append(*t, rightsize.TenantDemand{
		Name:     parts[0],
		SMs:      sms,
		MemBytes: int64(gb * 1e9),
	})
	return nil
}
