// Command paperbench regenerates every table and figure of the
// paper's evaluation from the simulator.
//
// Usage:
//
//	paperbench <artifact> [flags]
//
// The artifact table lists every artifact with the flags it honours;
// `paperbench` without arguments prints them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/moldesign"
	"repro/internal/repart"
	"repro/internal/report"
)

const usageText = `usage: paperbench <artifact> [flags]

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
  -completions N   completions per fig4/fig5 grid cell (default 100;
                   fig4, fig5 and all only)
  -csv DIR         write the printed series as CSV into DIR: fig2.csv
                   (fig2, all), fig4.csv and fig5.csv (fig4, fig5, all)
  -parallel N      run up to N independent scenarios concurrently
                   (default: number of CPUs; output is byte-identical
                   at any setting)
  -trace FILE      export the runs the artifact printed, instrumented,
                   as a Perfetto-loadable Chrome trace-event JSON file:
                   the grid of fig4/fig5, the Table 1 bursts of table1
                   and attrib, both for all; -metrics, -attrib, -flame,
                   -slo and -alerts export the same runs. fig1 fig2 fig3
                   coldstart reconfig rightsize ablations mixed openloop
                   repart print no such runs and take none of them (exit
                   2); scale streams its own -trace (see scale flags)
  -metrics FILE    the same runs as Prometheus text exposition
  -chaos SPEC      run the artifact's platform runs under seeded fault
                   injection, e.g. -chaos seed=7,rate=0.5 (keys: seed,
                   rate, pfail, kinds=worker+gpu+reconfig+submit,
                   after, until, max); same seed gives a byte-identical
                   run at any -parallel level. Only fig3, fig4, fig5,
                   table1, ablations, openloop, repart, attrib, scale
                   and all run platforms; the others take no -chaos
                   (exit 2)
  -repart SPEC     controller spec for the repart artifact, e.g.
                   -repart policy=knee,interval=10s,delta=5 (keys:
                   policy, mode, interval, tolerance, cooldown, delta,
                   min, workers); unset keys take defaults, other
                   artifacts are unaffected
  -attrib FILE     their latency attribution report (per-task phase
                   breakdowns + blame profiles) as JSON, tracediff's input
  -flame FILE      their attribution as folded flamegraph stacks
  -slo SPEC        attach the SLO burn-rate monitor to those runs:
                   comma-separated app:latency:target[:window] rules,
                   e.g. -slo llama-complete:12s:0.9; its spans and slo_*
                   families join the -trace and -metrics files
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
  -gpus N          provider pool size, one GPU per node (default 6)`

func usage() {
	fmt.Fprintln(os.Stderr, usageText)
	os.Exit(2)
}

// group is a set of paperbench's own flags an artifact honours, beside
// the telemetry flags of its cli.Set.
type group uint

const (
	platforms   group = 1 << iota // runs platforms: -chaos
	completions                   // runs the Fig. 4/5 grid: -completions
	csv                           // runs Fig. 2 or the grid: -csv
)

// params holds the parsed flags.
type params struct {
	tel                       *cli.Flags
	csvDir, chaos, repartFlag string
	parallel                  int
	// observe instruments the paper runs when an export reads them.
	observe     report.Observe
	completions int
	repart      repart.Spec
	// alerts receives a rule-pack scenario's -alerts history.
	alerts io.Writer

	tasks, shards, workers, window, gpus80, gpus40, apps, gpus int
	arrival                                                    float64
	seed                                                       int64
	horizon                                                    time.Duration
}

// An artifact is one row of the artifact table: its name, the
// telemetry flags it honours, its own flag groups, and its runner. The
// runner prints the artifact and returns the runs its exports are
// written from, or nil when it exports none.
type artifact struct {
	name  string
	tel   cli.Set
	flags group
	run   func(w io.Writer, p *params) (*report.Runs, error)
}

// artifacts is the artifact table, in usage order. Exports-set rows
// run the paper experiments and export those same runs; scale, fleet
// and autoscale carry their own alert-rule packs and span streams.
var artifacts = []artifact{
	{"fig1", 0, 0, plain(func(w io.Writer) error { return report.Fig1(w, []int{1, 8, 32}) })},
	{"fig2", 0, csv, func(w io.Writer, _ *params) (*report.Runs, error) { return report.Fig2(w, nil) }},
	{"fig3", 0, platforms, plain(func(w io.Writer) error { return report.Fig3(w, moldesign.DefaultConfig()) })},
	{"fig4", cli.Exports, platforms | completions | csv, runFig45},
	{"fig5", cli.Exports, platforms | completions | csv, runFig45},
	{"table1", cli.Exports, platforms, func(w io.Writer, p *params) (*report.Runs, error) { return report.Table1(w, p.observe) }},
	{"coldstart", 0, 0, plain(report.ColdStart)},
	{"reconfig", 0, 0, plain(report.Reconfig)},
	{"rightsize", 0, 0, plain(report.Rightsize)},
	{"ablations", 0, platforms, plain(report.Ablations)},
	{"mixed", 0, 0, plain(report.MixedTenancy)},
	{"openloop", 0, platforms, plain(report.OpenLoop)},
	{"repart", 0, platforms, func(w io.Writer, p *params) (*report.Runs, error) { return nil, report.Repart(w, p.repart) }},
	{"attrib", cli.Exports, platforms, func(w io.Writer, p *params) (*report.Runs, error) {
		return report.Attribution(w, p.observe.SLO)
	}},
	{"scale", cli.Trace | cli.Sample | cli.RulePack, platforms, runScale},
	{"fleet", cli.RulePack, 0, func(w io.Writer, p *params) (*report.Runs, error) {
		return nil, report.Fleet(w, report.FleetOptions{
			GPUs80: p.gpus80, GPUs40: p.gpus40, Apps: p.apps,
			Duration: p.horizon, ArrivalRate: p.arrival, Seed: p.seed,
			Attach: p.tel.Attach(), Alerts: p.alerts,
		})
	}},
	{"autoscale", cli.RulePack, 0, func(w io.Writer, p *params) (*report.Runs, error) {
		return nil, report.Autoscale(w, report.AutoscaleOptions{
			GPUs: p.gpus, Horizon: p.horizon, Seed: p.seed,
			Attach: p.tel.Attach(), Alerts: p.alerts,
		})
	}},
	{"all", cli.Exports, platforms | completions | csv, func(w io.Writer, p *params) (*report.Runs, error) {
		return report.All(w, p.completions, p.observe)
	}},
}

// plain adapts a renderer that exports nothing to a runner.
func plain(render func(io.Writer) error) func(io.Writer, *params) (*report.Runs, error) {
	return func(w io.Writer, _ *params) (*report.Runs, error) { return nil, render(w) }
}

func runFig45(w io.Writer, p *params) (*report.Runs, error) {
	return report.Fig45(w, p.completions, p.observe)
}

// runScale runs the scale artifact; under -serve it gets per-shard
// series stores, batched progress, and a live span tail on each shard.
func runScale(w io.Writer, p *params) (*report.Runs, error) {
	opts := report.ScaleOptions{
		Tasks: p.tasks, Shards: p.shards, Workers: p.workers, Window: p.window,
		ArrivalRate: p.arrival, Seed: p.seed, SampleMod: p.tel.Sample,
		TracePath: p.tel.Trace, Attach: p.tel.Attach(), Alerts: p.alerts,
	}
	if pr := p.tel.Progress(); pr != nil {
		pr.SetShards(core.ScaleConfig{Shards: p.shards}.WithDefaults().Shards)
		opts.Progress = pr
	}
	return nil, report.Scale(w, opts)
}

// bind registers on fs the flags artifact a honours, parsing into the
// params it returns.
func bind(a *artifact, fs *flag.FlagSet) *params {
	p := &params{tel: cli.Bind(fs, "paperbench", a.tel)}
	if a.flags&completions != 0 {
		fs.IntVar(&p.completions, "completions", 100, "completions per fig4/fig5 grid cell")
	}
	if a.flags&csv != 0 {
		fs.StringVar(&p.csvDir, "csv", "", "also write the printed figure series as CSV into this directory")
	}
	if a.flags&platforms != 0 {
		fs.StringVar(&p.chaos, "chaos", "", "seeded fault-injection spec, e.g. seed=7,rate=0.5")
	}
	fs.IntVar(&p.parallel, "parallel", runtime.NumCPU(), "max independent scenarios run concurrently")
	fs.StringVar(&p.repartFlag, "repart", "", "repartitioning-controller spec, e.g. policy=knee,interval=10s")
	fs.IntVar(&p.tasks, "tasks", 0, "scale: total tasks (default 1000000)")
	fs.IntVar(&p.shards, "shards", 0, "scale: independent platform shards (default 8)")
	fs.IntVar(&p.workers, "workers", 0, "scale: CPU workers per shard (default 16)")
	fs.IntVar(&p.window, "window", 0, "scale: in-flight submissions per shard (default 64)")
	fs.Float64Var(&p.arrival, "arrival", 0, "scale: per-shard offered load in tasks/sec (default 8000)")
	fs.Int64Var(&p.seed, "seed", 0, "scale/fleet: RNG seed (default 1)")
	fs.IntVar(&p.gpus80, "gpus80", 0, "fleet: A100-80GB parts (default 64)")
	fs.IntVar(&p.gpus40, "gpus40", 0, "fleet: A100-40GB parts (default 64)")
	fs.IntVar(&p.apps, "apps", 0, "fleet: distinct applications (default 56)")
	fs.DurationVar(&p.horizon, "horizon", 0, "fleet/autoscale: arrival horizon on the virtual clock")
	fs.IntVar(&p.gpus, "gpus", 0, "autoscale: provider pool size (default 6)")
	return p
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	if os.Args[1] == "tracediff" {
		if err := cli.TraceDiff("paperbench", os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench: tracediff:", err)
			os.Exit(1)
		}
		return
	}
	i := slices.IndexFunc(artifacts, func(a artifact) bool { return a.name == os.Args[1] })
	if i < 0 {
		usage()
	}
	a := &artifacts[i]
	fs := flag.NewFlagSet(a.name, flag.ExitOnError)
	p := bind(a, fs)
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if p.repartFlag != "" {
		spec, err := repart.ParseSpec(p.repartFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench: -repart:", err)
			os.Exit(2)
		}
		p.repart = spec
	}
	if p.chaos != "" {
		spec, err := fault.ParseSpec(p.chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench: -chaos:", err)
			os.Exit(2)
		}
		core.SetChaos(&spec)
		fmt.Fprintf(os.Stderr, "paperbench: chaos enabled (%s)\n", spec.String())
	}
	harness.SetParallelism(p.parallel)
	// With -serve the live server starts before the run, so its endpoints
	// answer while the scenarios execute.
	tel := p.tel
	tel.Start()
	if tel.Observe() {
		p.observe = report.Observe{On: true, SLO: tel.SLO}
	}
	if tel.Alerts != "" && a.tel&cli.RulePack != 0 {
		f, err := os.Create(tel.Alerts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench: -alerts:", err)
			os.Exit(1)
		}
		defer f.Close()
		p.alerts = f
	}
	runs, err := a.run(os.Stdout, p)
	if err == nil && p.csvDir != "" {
		err = report.WriteFigureCSVs(p.csvDir, runs)
	}
	if err == nil && tel.Observe() {
		err = tel.Export(runs.Collectors...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
	tel.Linger()
}
