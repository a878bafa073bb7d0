// Package core is the library's facade: it assembles the simulated
// testbed (devices, node, MPS/MIG control plane), the Parsl-like FaaS
// runtime with the paper's partitioning extensions, and the experiment
// drivers that regenerate every figure and table of the evaluation.
//
// A Platform corresponds to the paper's testbed (§5.1): a node with
// CPU workers and A100 GPUs, a DataFlowKernel, a CPU executor, and a
// reconfigurable GPU executor whose accelerator list and GPU
// percentages express the partitioning (Listings 1–3).
package core

import (
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/faas/htex"
	"repro/internal/faas/provider"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/gpuctl"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/tsdb"
	"repro/internal/simgpu"
)

// Options configures a Platform.
type Options struct {
	// DeviceSpecs lists the GPUs; default is the paper's two A100s
	// (80 GB variant, used by the multi-instance experiments).
	DeviceSpecs []simgpu.DeviceSpec
	// CPUWorkers sizes the "cpu" executor (default 16, as in
	// Listing 1; the testbed has 24 cores).
	CPUWorkers int
	// Retries is the DFK retry count (default 1, as in Listing 1).
	Retries int
	// RetryBackoff and RetryBackoffMax, when positive, space retry
	// attempts exponentially — required when tasks must ride through a
	// repartitioning restart window instead of burning every retry at
	// the same instant. Zero keeps the seed behavior (immediate
	// retries; chaos platforms still get their own defaults).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// WorkerInit is the function-initialization cold-start component
	// (default 2 s).
	WorkerInit time.Duration
	// Observe turns on deep instrumentation: devent scheduler counters
	// and per-kernel spans from the devices. Task and worker spans are
	// always collected (attribution and the SLO monitor read them).
	Observe bool
	// TaskTimeout is the per-task deadline passed to the DFK (0 = no
	// deadlines, the seed behavior).
	TaskTimeout time.Duration
	// SLO, when non-empty, attaches a burn-rate monitor over the task
	// span stream: comma-separated "<app>:<latency>:<target>[:<window>]"
	// rules evaluated on the virtual clock (see analyze.ParseSLOSpec).
	// The monitor is read-only — it emits alert spans and counters but
	// never steers scheduling or repartitioning.
	SLO string
	// TSDB, when set, attaches a virtual-time time-series store over
	// the collector's registry: a scrape daemon samples every
	// instrument at the configured interval while the run executes,
	// Run takes a final scrape after the queue drains, and the handle
	// lands in Platform.TSDB for windowed queries and the live HTTP
	// plane. With SLO also set, the burn-rate monitor registers its
	// alert rules here and records a queryable slo:burn signal (the
	// alert stream is identical). Nil keeps the seed behavior exactly.
	TSDB *tsdb.Config
	// OnCollector, when set, is called with the platform's collector
	// during assembly, before any span exists. Streaming exporters use
	// it to attach sinks, samplers, and incremental analyzers that must
	// see the stream from the first span.
	OnCollector func(*obs.Collector)
	// Chaos enables seeded fault injection for this platform; nil
	// falls back to the process-wide spec set via SetChaos (usually
	// also nil). A chaos platform gets recovery defaults: at least 4
	// retries, jittered retry backoff, worker auto-restart with
	// blacklisting, and the injector wired to every executor and
	// device.
	Chaos *fault.Spec
}

// AttachFunc is the per-run live-plane hook every scenario config
// carries as Attach. Core calls it exactly once for each run it
// assembles — a multiplex or phase-shift platform, a scale shard, a
// fleet cell, an autoscale cell — after the run's own sinks are
// installed (OnCollector, ScaleConfig.Sinks) and its scope is final,
// and before its first span. db is the run's series store, nil when
// none was requested. Runs assemble on parallel harness workers, so
// the hook must be safe for concurrent use.
type AttachFunc func(c *obs.Collector, db *tsdb.DB)

func (o Options) withDefaults() Options {
	if len(o.DeviceSpecs) == 0 {
		o.DeviceSpecs = []simgpu.DeviceSpec{simgpu.A100SXM480GB(), simgpu.A100SXM480GB()}
	}
	if o.CPUWorkers <= 0 {
		o.CPUWorkers = 16
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.WorkerInit == 0 {
		o.WorkerInit = 2 * time.Second
	}
	if o.Chaos == nil {
		o.Chaos = globalChaos
	}
	if o.Chaos != nil && o.Retries < 4 {
		o.Retries = 4 // transient faults need headroom to retry through
	}
	return o
}

// chaosHTEX applies the recovery defaults every chaos-run executor
// gets: crashed workers restart with exponential backoff and are
// blacklisted after repeated crashes.
func (o Options) chaosHTEX(cfg htex.Config) htex.Config {
	if o.Chaos == nil {
		return cfg
	}
	cfg.RestartBackoff = 500 * time.Millisecond
	cfg.RestartBackoffMax = 5 * time.Second
	cfg.BlacklistAfter = 5
	return cfg
}

// Platform is an assembled testbed.
type Platform struct {
	Env     *devent.Env
	Devices []*simgpu.Device
	// Inventory is the fleet-layer view of Devices: one entry per GPU,
	// IDs matching the device names, in the same order. Placement-aware
	// callers (the fleet packer, multi-GPU scenarios) target it instead
	// of assuming the paper's fixed 2-GPU pair.
	Inventory fleet.Inventory
	Node      *gpuctl.Node
	DFK       *faas.DFK
	CPU       *htex.HTEX
	// Obs is the platform's collector: every span and metric from the
	// DFK, executors, and (with Options.Observe) devices and scheduler.
	Obs *obs.Collector
	// SLOMon is the attached SLO burn-rate monitor (nil unless
	// Options.SLO is set); Run closes it when the simulation drains.
	SLOMon *analyze.Monitor
	// TSDB is the attached time-series store (nil unless Options.TSDB
	// is set); Run starts its scrape daemon and stops it when the
	// workflow completes.
	TSDB *tsdb.DB
	// Injector drives fault injection (nil when chaos is off).
	Injector *fault.Injector
	// Checker watches every task for the exactly-one-terminal-state
	// invariant (nil when chaos is off).
	Checker *fault.Checker
	opts    Options
	gpu     *htex.HTEX
}

// NewPlatform builds the testbed with a started CPU executor; the GPU
// executor is added via ConfigureGPUExecutor once the partitioning is
// chosen.
func NewPlatform(opts Options) (*Platform, error) {
	o := opts.withDefaults()
	env := devent.NewEnv()
	devices := make([]*simgpu.Device, len(o.DeviceSpecs))
	for i, spec := range o.DeviceSpecs {
		d, err := simgpu.NewDevice(env, fmt.Sprintf("gpu%d", i), spec)
		if err != nil {
			return nil, err
		}
		devices[i] = d
	}
	node := gpuctl.NewNode(env, devices...)
	collector := obs.New(env)
	if o.Observe {
		env.SetObserver(collector)
		for _, d := range devices {
			d.SetCollector(collector)
		}
	}
	if o.OnCollector != nil {
		o.OnCollector(collector)
	}
	cpu, err := htex.New(env, o.chaosHTEX(htex.Config{
		Label:      "cpu",
		MaxWorkers: o.CPUWorkers,
		Provider:   provider.NewLocal(env, node),
	}))
	if err != nil {
		return nil, err
	}
	fcfg := faas.Config{
		RunDir:    "sim",
		Retries:   o.Retries,
		Timeout:   o.TaskTimeout,
		Collector: collector,
	}
	if o.RetryBackoff > 0 {
		fcfg.RetryBackoff = o.RetryBackoff
		fcfg.RetryBackoffMax = o.RetryBackoffMax
	}
	if o.Chaos != nil {
		fcfg.RetryBackoff = 200 * time.Millisecond
		fcfg.RetryBackoffMax = 5 * time.Second
		fcfg.RetryJitter = 0.2
		fcfg.Seed = o.Chaos.Seed
	}
	dfk := faas.NewDFK(env, fcfg, cpu)
	pl := &Platform{
		Env:       env,
		Devices:   devices,
		Inventory: fleet.NewInventory(o.DeviceSpecs...),
		Node:      node,
		DFK:       dfk,
		CPU:       cpu,
		Obs:       collector,
		opts:      o,
	}
	if o.TSDB != nil {
		pl.TSDB = tsdb.New(collector.Metrics(), env, *o.TSDB)
	}
	if o.SLO != "" {
		rules, err := analyze.ParseSLOSpec(o.SLO)
		if err != nil {
			return nil, err
		}
		pl.SLOMon = analyze.NewMonitor(collector, env, rules, pl.TSDB)
	}
	if o.Chaos != nil {
		inj := fault.New(env, *o.Chaos, collector)
		inj.AttachPool(cpu)
		for _, d := range devices {
			inj.AttachDevice(d)
		}
		dfk.SetDispatchFault(func(*faas.Task) error { return inj.SubmitFault() })
		ck := fault.NewChecker()
		ck.Attach(dfk)
		pl.Injector = inj
		pl.Checker = ck
	}
	return pl, nil
}

// GPU returns the current GPU executor (nil before configuration).
func (pl *Platform) GPU() *htex.HTEX { return pl.gpu }

// ConfigureGPUExecutor creates (or replaces) the "gpu" executor with
// the given accelerator list and optional per-entry GPU percentages —
// the paper's extended configuration (§4.1). If an old GPU executor
// exists it is shut down first, waiting for its workers to release
// their contexts.
func (pl *Platform) ConfigureGPUExecutor(p *devent.Proc, accelerators []string, percentages []int) error {
	if pl.gpu != nil {
		pl.gpu.ShutdownAndWait(p)
	}
	gpu, err := htex.New(pl.Env, pl.opts.chaosHTEX(htex.Config{
		Label:                 "gpu",
		AvailableAccelerators: accelerators,
		GPUPercentages:        percentages,
		WorkerInit:            pl.opts.WorkerInit,
		Provider:              provider.NewLocal(pl.Env, pl.Node),
	}))
	if err != nil {
		return err
	}
	pl.gpu = gpu
	if pl.Injector != nil {
		pl.Injector.AttachPool(gpu)
	}
	return pl.DFK.AddExecutor(gpu)
}

// StartMPS launches the MPS daemon on device idx (spatial sharing).
func (pl *Platform) StartMPS(p *devent.Proc, idx int) (*gpuctl.MPSDaemon, error) {
	return pl.Node.StartMPS(p, idx)
}

// ConfigureMIG enables MIG mode on device idx (if needed) and installs
// the given profile layout, returning the instance UUIDs in placement
// order for use as accelerator references. An index outside the
// inventory is an error, not a panic: fleet-sized scenarios pick
// devices programmatically, so a bad index must surface as a value the
// caller can handle.
func (pl *Platform) ConfigureMIG(p *devent.Proc, idx int, profiles []string) ([]string, error) {
	if idx < 0 || idx >= len(pl.Devices) {
		return nil, fmt.Errorf("core: ConfigureMIG device %d out of range (inventory has %d GPUs)", idx, len(pl.Devices))
	}
	dev := pl.Devices[idx]
	if err := dev.EnableMIG(p); err != nil {
		return nil, err
	}
	ins, err := dev.ConfigureMIG(p, profiles)
	if err != nil {
		return nil, err
	}
	uuids := make([]string, len(ins))
	for i, in := range ins {
		uuids[i] = in.UUID()
	}
	return uuids, nil
}

// Register registers an app on the DFK.
func (pl *Platform) Register(app faas.App) { pl.DFK.Register(app) }

// Run starts the DFK (and, under chaos, the fault injector), spawns
// main as the workflow proc, and drives the simulation to completion.
// The injector stops when main returns, so the event queue drains and
// the run terminates even with an unbounded fault schedule.
func (pl *Platform) Run(main func(p *devent.Proc) error) error {
	if err := pl.DFK.Start(); err != nil {
		return err
	}
	if pl.Injector != nil {
		pl.Injector.Start()
	}
	// The scrape daemon holds a pending timer, so it must stop when the
	// workflow completes or the queue would never drain.
	pl.TSDB.Start(pl.Env)
	var mainErr error
	pl.Env.Spawn("main", func(p *devent.Proc) {
		mainErr = main(p)
		if pl.Injector != nil {
			pl.Injector.Stop()
		}
		pl.TSDB.Stop()
	})
	if err := pl.Env.Run(); err != nil {
		return err
	}
	// Flush SLO alert windows still burning when the simulation drains.
	pl.SLOMon.Close()
	// One final scrape at drain time captures the run's end state
	// (including any alert counters the flush just bumped).
	pl.TSDB.Scrape()
	return mainErr
}
