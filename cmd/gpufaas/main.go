// Command gpufaas runs ad-hoc scenarios on the partitioning-enabled
// FaaS platform: LLaMa multiplexing with a chosen technique, the
// molecular-design campaign, an SM sweep, partition planning, or one
// repartitioning run. The fleet and autoscale scenarios are paperbench
// artifacts.
//
// Usage:
//
//	gpufaas multiplex -mode mps -procs 4 -completions 100
//	gpufaas moldesign -rounds 4 -batch 16
//	gpufaas sweep -percents 5,10,20,50,100
//	gpufaas pack -tenant llama:21:18 -tenant resnet:10:1
//	gpufaas fleet -gpus80 2 -gpus40 1 -demands "llama:30:20;resnet:10:1"
//	gpufaas repart -spec policy=knee,interval=10s
//	gpufaas tracediff -a a.json -b b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/moldesign"
	"repro/internal/repart"
	"repro/internal/report"
	"repro/internal/rightsize"
	"repro/internal/simgpu"
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
	fmt.Fprintln(os.Stderr, `usage: gpufaas <multiplex|moldesign|sweep|pack|fleet|repart|tracediff> [flags]`)
	os.Exit(2)
}

func runMultiplex(args []string) error {
	fs := flag.NewFlagSet("multiplex", flag.ExitOnError)
	mode := fs.String("mode", "mps", "timeshare | mps-default | mps | mig | vgpu")
	procs := fs.Int("procs", 4, "concurrent model processes (1-4)")
	completions := fs.Int("completions", 100, "total completions")
	tokens := fs.Int("tokens", 20, "output tokens per completion")
	chaos := fs.String("chaos", "", "seeded fault-injection spec, e.g. seed=7,rate=0.5")
	tel := cli.Bind(fs, "gpufaas", cli.Exports|cli.Single)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tel.Start()
	cfg := core.MultiplexConfig{
		Mode:         core.Mode(*mode),
		Processes:    *procs,
		Completions:  *completions,
		OutputTokens: *tokens,
		Observe:      tel.Observe(),
		SLO:          tel.SLO,
		TSDB:         tel.TSDB(),
		Attach:       tel.Attach(),
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
	if err := tel.Export(r.Obs); err != nil {
		return err
	}
	fmt.Printf("mode=%s procs=%d completions=%d\n", r.Mode, r.Processes, r.Completions)
	fmt.Printf("  preload (cold start, excluded): %.2fs\n", r.PreloadTime.Seconds())
	fmt.Printf("  makespan:      %.2fs\n", r.Makespan.Seconds())
	fmt.Printf("  throughput:    %.3f completions/s\n", r.Throughput)
	fmt.Printf("  latency mean:  %.2fs  p50 %.2fs  p95 %.2fs  max %.2fs\n",
		r.Latencies.Mean().Seconds(), r.Latencies.Percentile(50).Seconds(),
		r.Latencies.Percentile(95).Seconds(), r.Latencies.Max().Seconds())
	fmt.Printf("  utilization:   %.0f%%\n", r.Utilization*100)
	if cfg.Chaos != nil {
		fmt.Printf("  chaos:         %d faults injected, %d completions failed terminally (outcomes %v)\n",
			r.Faults, r.Failed, r.Ledger.Outcomes())
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
		fmt.Print(report.Fig3Gantt(res, 100))
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
	_, err := report.Fig2(os.Stdout, percents)
	return err
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
		Observe: tel.Observe(),
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
	if err := tel.Export(r.Obs); err != nil {
		return err
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
// Each -tenant is name:SMs[:memGB]. Both an MPS percentage plan and a
// placement-validated MIG layout are printed.
func runPack(args []string) error {
	fs := flag.NewFlagSet("pack", flag.ExitOnError)
	specName := fs.String("spec", "a100-80gb", "device spec (a100-40gb | a100-80gb)")
	var tenants tenantFlags
	fs.Var(&tenants, "tenant", "tenant demand as name:SMs[:memGB] (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(tenants) == 0 {
		return fmt.Errorf("pack needs at least one -tenant name:SMs[:memGB]")
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

// runFleet packs a fixed tenant set onto a GPU inventory with the
// fleet-layer packer in one shot and prints each granted segment plus
// the per-GPU fragmentation it leaves behind. The churn scenario is
// paperbench fleet.
//
//	gpufaas fleet -gpus80 2 -gpus40 1 -demands "llama:30:20;resnet:10:1"
func runFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	gpus80 := fs.Int("gpus80", 0, "A100-80GB parts (with -gpus40, default 2x80GB + 1x40GB)")
	gpus40 := fs.Int("gpus40", 0, "A100-40GB parts")
	demands := fs.String("demands", "", `tenant set to pack: "name:SMs[:memGB];..." (e.g. "llama:30:20;resnet:10:1")`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *demands == "" {
		return fmt.Errorf(`fleet needs -demands "name:SMs[:memGB];..."`)
	}
	n80, n40 := *gpus80, *gpus40
	if n80 <= 0 && n40 <= 0 {
		n80, n40 = 2, 1
	}
	ds, err := fleet.ParseDemands(*demands)
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

// tenantFlags collects repeated -tenant name:SMs[:memGB] flags, each
// parsed by fleet.ParseDemands.
type tenantFlags []rightsize.TenantDemand

func (t *tenantFlags) String() string { return fmt.Sprint([]rightsize.TenantDemand(*t)) }

func (t *tenantFlags) Set(v string) error {
	ds, err := fleet.ParseDemands(v)
	if err != nil {
		return err
	}
	for _, d := range ds {
		*t = append(*t, rightsize.TenantDemand{Name: d.Tenant, SMs: d.SMs, MemBytes: d.MemBytes})
	}
	return nil
}
