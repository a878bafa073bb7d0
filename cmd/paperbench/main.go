// Command paperbench regenerates every table and figure of the
// paper's evaluation from the simulator.
//
// Usage:
//
//	paperbench <artifact> [flags]
//
// Artifacts: fig1, fig2, fig3, fig4, fig5 (fig4 and fig5 run the same
// experiment and print both), table1, coldstart, reconfig, rightsize,
// all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/moldesign"
	"repro/internal/repart"
	"repro/internal/report"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: paperbench <artifact> [flags]

artifacts:
  fig1       per-layer FLOP variation of CNNs
  fig2       LLaMa-2 latency vs #SMs under MPS
  fig3       molecular-design timeline and GPU idle time
  fig4       completion time, 1-4 processes x {timeshare, MPS, MIG}
  fig5       same experiment, average inference latency
  table1     quantified multiplexing-technique comparison
  coldstart  cold-start breakdown (function init / context / load)
  reconfig   re-partitioning downtime incl. weight-cache ablation
  rightsize  partition right-sizing study
  ablations  design-choice ablations (host gap, mem fraction,
             batching vs multiplexing, vGPU quantum)
  mixed      real-time ResNet next to a LLaMa service
  openloop   Poisson-arrival serving: stability per technique
  repart     phase-shifted tenants: online repartitioning controller
             vs every static Table 1 plan
  attrib     latency attribution: per-phase blame profiles for the
             Table 1 bursts plus the timeshare-vs-MPS trace diff
  scale      million-task throughput: sharded open-loop microtask run
             reporting events/sec, span counts, and retained-window
             memory (see -tasks/-shards/-sample)
  fleet      fleet-scale placement: fragmentation-aware MIG+MPS
             packing of 50+ apps over a 128-GPU mixed inventory under
             seeded churn, across a 0.5x/1.0x/1.5x offered-load grid
             (see -gpus80/-gpus40/-apps/-horizon/-arrival/-seed;
             purely virtual, byte-identical at any -parallel level)
  autoscale  SLO-driven autoscaling: hybrid block scaling + admission
             control against static provisioning baselines on the same
             diurnal, bursty traffic (see -gpus/-horizon/-seed; purely
             virtual, byte-identical at any -parallel level)
  all        everything, in paper order (repart, attrib, scale, fleet,
             and autoscale excluded: run them explicitly)

modes:
  tracediff  compare two attribution JSON artifacts (written with
             -attrib): paperbench tracediff -a A.json -b B.json
             [-o out.json] [-label-a NAME] [-label-b NAME]

flags:
  -completions N   completions for fig4/fig5/all (default 100)
  -csv DIR         also write fig2/fig4/fig5 series as CSV into DIR
  -parallel N      run up to N independent scenarios concurrently
                   (default: number of CPUs; output is byte-identical
                   at any setting)
  -trace FILE      rerun the fig4/fig5 grid and Table 1 bursts with
                   deep instrumentation and write a Perfetto-loadable
                   Chrome trace-event JSON file
  -metrics FILE    same instrumented rerun, exported as Prometheus
                   text exposition
  -chaos SPEC      run every experiment under seeded fault injection,
                   e.g. -chaos seed=7,rate=0.5 (keys: seed, rate,
                   pfail, kinds=worker+gpu+reconfig+endpoint+submit,
                   after, until, max, reconnect); same seed gives a
                   byte-identical run at any -parallel level
  -repart SPEC     controller spec for the repart artifact, e.g.
                   -repart policy=knee,interval=10s,delta=5 (keys:
                   policy, mode, interval, tolerance, cooldown, delta,
                   min, workers); unset keys take defaults, other
                   artifacts are unaffected
  -attrib FILE     rerun the instrumented grid and write the latency
                   attribution report (per-task phase breakdowns +
                   blame profiles) as JSON — the tracediff input
  -flame FILE      same rerun, exported as folded flamegraph stacks
                   (flamegraph.pl / speedscope)
  -slo SPEC        attach the SLO burn-rate monitor to instrumented
                   reruns: comma-separated app:latency:target[:window]
                   rules, e.g. -slo llama-complete:12s:0.9
  -alerts FILE     write the SLO alert stream (requires -slo). For the
                   scale, fleet, and autoscale artifacts it stands
                   alone: each cell's alert-rule history (resolved
                   incidents + still-active rules from the scenario's
                   default rule pack) renders to FILE, byte-identical
                   at any -parallel level
  -serve ADDR      serve live observability over HTTP on ADDR while
                   the run executes (e.g. -serve 127.0.0.1:9190):
                   /metrics, /api/series, /spans, /progress, /healthz,
                   /debug/pprof. The scale, fleet, and autoscale
                   artifacts attach a virtual-time series store and a
                   live span tail per shard or cell. The process keeps
                   serving after the run completes — interrupt it to
                   exit. Without -serve nothing changes.

scale flags:
  -tasks N         total tasks (default 1000000)
  -shards N        independent platform shards (default 8)
  -workers N       CPU workers per shard (default 16)
  -window N        in-flight submissions per shard (default 64)
  -arrival R       per-shard offered load, tasks/sec (default 8000)
  -seed N          arrival/service RNG seed (default 1)
  -trace FILE      stream every shard's spans into one Chrome
                   trace-event JSON file as they end
  -sample N        deterministically keep ~1/N of task trees in the
                   -trace file (counters see everything regardless)

fleet flags (-arrival and -seed apply here too):
  -gpus80 N        A100-80GB parts in the inventory (default 64)
  -gpus40 N        A100-40GB parts in the inventory (default 64)
  -apps N          distinct applications churning (default 56)
  -horizon D       tenant-arrival horizon on the virtual clock
                   (default 10m)

autoscale flags (-horizon and -seed apply here too):
  -gpus N          provider pool size, one GPU per node (default 6)`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	artifact := os.Args[1]
	if artifact == "tracediff" {
		if err := cli.TraceDiff("paperbench", os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench: tracediff:", err)
			os.Exit(1)
		}
		return
	}
	// scale/fleet/autoscale carry their own alert-rule packs and run their
	// own span streams; the instrumented reruns serve every other artifact.
	scenarioArtifact := artifact == "scale" || artifact == "fleet" || artifact == "autoscale"
	fs := flag.NewFlagSet(artifact, flag.ExitOnError)
	telSet := cli.Exports
	if scenarioArtifact {
		telSet |= cli.RulePack
	}
	if artifact == "scale" {
		telSet |= cli.Sample
	}
	tel := cli.Bind(fs, "paperbench", telSet)
	completions := fs.Int("completions", 100, "completions for the fig4/fig5 experiment")
	csvDir := fs.String("csv", "", "also write figure CSV series into this directory")
	parallel := fs.Int("parallel", runtime.NumCPU(), "max independent scenarios run concurrently")
	chaos := fs.String("chaos", "", "seeded fault-injection spec, e.g. seed=7,rate=0.5")
	repartFlag := fs.String("repart", "", "repartitioning-controller spec, e.g. policy=knee,interval=10s")
	tasks := fs.Int("tasks", 0, "scale: total tasks (default 1000000)")
	shards := fs.Int("shards", 0, "scale: independent platform shards (default 8)")
	workers := fs.Int("workers", 0, "scale: CPU workers per shard (default 16)")
	window := fs.Int("window", 0, "scale: in-flight submissions per shard (default 64)")
	arrival := fs.Float64("arrival", 0, "scale: per-shard offered load in tasks/sec (default 8000)")
	seed := fs.Int64("seed", 0, "scale/fleet: RNG seed (default 1)")
	gpus80 := fs.Int("gpus80", 0, "fleet: A100-80GB parts (default 64)")
	gpus40 := fs.Int("gpus40", 0, "fleet: A100-40GB parts (default 64)")
	apps := fs.Int("apps", 0, "fleet: distinct applications (default 56)")
	horizon := fs.Duration("horizon", 0, "fleet/autoscale: arrival horizon on the virtual clock")
	gpus := fs.Int("gpus", 0, "autoscale: provider pool size (default 6)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	var repartSpec repart.Spec
	if *repartFlag != "" {
		spec, err := repart.ParseSpec(*repartFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench: -repart:", err)
			os.Exit(2)
		}
		repartSpec = spec
		core.SetRepart(&spec)
	}
	if *chaos != "" {
		spec, err := fault.ParseSpec(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench: -chaos:", err)
			os.Exit(2)
		}
		core.SetChaos(&spec)
		fmt.Fprintf(os.Stderr, "paperbench: chaos enabled (%s)\n", spec.String())
	}
	harness.SetParallelism(*parallel)
	// With -serve the live server starts before the run, so its endpoints
	// answer while the scenarios execute.
	tel.Start()
	w := os.Stdout
	var err error
	var scenarioAlerts io.Writer
	if tel.Alerts != "" && scenarioArtifact {
		f, ferr := os.Create(tel.Alerts)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "paperbench: -alerts:", ferr)
			os.Exit(1)
		}
		defer f.Close()
		scenarioAlerts = f
	}
	switch artifact {
	case "fig1":
		err = report.Fig1(w, []int{1, 8, 32})
	case "fig2":
		err = report.Fig2(w, nil)
	case "fig3":
		err = report.Fig3(w, moldesign.DefaultConfig())
	case "fig4", "fig5":
		err = report.Fig45(w, *completions)
	case "table1":
		err = report.Table1(w)
	case "coldstart":
		err = report.ColdStart(w)
	case "reconfig":
		err = report.Reconfig(w)
	case "rightsize":
		err = report.Rightsize(w)
	case "ablations":
		err = report.Ablations(w)
	case "mixed":
		err = report.MixedTenancy(w)
	case "openloop":
		err = report.OpenLoop(w)
	case "repart":
		err = report.Repart(w, repartSpec)
	case "attrib":
		err = report.Attribution(w, *completions)
	case "scale":
		// Under -serve: per-shard series stores, batched progress, and
		// a live span tail on each shard.
		opts := report.ScaleOptions{
			Tasks: *tasks, Shards: *shards, Workers: *workers, Window: *window,
			ArrivalRate: *arrival, Seed: *seed, SampleMod: tel.Sample,
			TracePath: tel.Trace, Attach: tel.Attach(), Alerts: scenarioAlerts,
		}
		if p := tel.Progress(); p != nil {
			p.SetShards(core.ScaleConfig{Shards: *shards}.WithDefaults().Shards)
			opts.Progress = p
		}
		err = report.Scale(w, opts)
	case "fleet":
		err = report.Fleet(w, report.FleetOptions{
			GPUs80: *gpus80, GPUs40: *gpus40, Apps: *apps,
			Duration: *horizon, ArrivalRate: *arrival, Seed: *seed,
			Attach: tel.Attach(), Alerts: scenarioAlerts,
		})
	case "autoscale":
		err = report.Autoscale(w, report.AutoscaleOptions{
			GPUs: *gpus, Horizon: *horizon, Seed: *seed,
			Attach: tel.Attach(), Alerts: scenarioAlerts,
		})
	case "all":
		err = report.All(w, *completions)
	default:
		usage()
	}
	if err == nil && *csvDir != "" {
		err = report.WriteFigureCSVs(*csvDir, *completions)
	}
	if err == nil && !scenarioArtifact && (tel.Trace != "" || tel.Metrics != "") {
		err = writeObservability(tel.Trace, tel.Metrics, *completions)
	}
	if err == nil && !scenarioArtifact && (tel.Attrib != "" || tel.Flame != "" || tel.Alerts != "") {
		err = writeAttribution(tel.Attrib, tel.Flame, tel.Alerts, tel.SLO, *completions)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
	tel.Linger()
}

// writeAttribution reruns the instrumented grid once and writes the
// requested attribution artifacts. Any path may be empty.
func writeAttribution(attribPath, flamePath, alertsPath, slo string, completions int) error {
	open := func(path string) (io.Writer, func(), error) {
		if path == "" {
			return nil, func() {}, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		return f, func() { f.Close() }, nil
	}
	attribW, closeA, err := open(attribPath)
	if err != nil {
		return err
	}
	defer closeA()
	flameW, closeF, err := open(flamePath)
	if err != nil {
		return err
	}
	defer closeF()
	alertsW, closeAl, err := open(alertsPath)
	if err != nil {
		return err
	}
	defer closeAl()
	return report.AttributionArtifacts(attribW, flameW, alertsW, completions, slo)
}

// writeObservability reruns the instrumented grid once and writes the
// requested artifacts. Either path may be empty.
func writeObservability(tracePath, metricsPath string, completions int) error {
	var traceW, promW io.Writer
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		traceW = f
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		promW = f
	}
	return report.Observability(traceW, promW, completions)
}
