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
	// Retries is the DFK retry count (default 0, so a failed task fails
	// at once; Listing 1 sets 1, and a chaos spec raises it to 4).
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
	// also nil). Chaos adds only two things: the injector, wired to
	// every executor and device, and the DFK retry policy faults need
	// — at least 4 retries with jittered backoff. Worker restart and
	// blacklisting are the executor's own, and the task ledger is
	// checked on every run, with or without chaos.
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

// Platform is an assembled testbed. Env, Devices, Obs, TSDB and SLOMon
// come from its embedded simulation shell.
type Platform struct {
	// Inventory is the fleet-layer view of Devices: one entry per GPU,
	// IDs matching the device names, in the same order. Placement-aware
	// callers (the fleet packer, multi-GPU scenarios) target it instead
	// of assuming the paper's fixed 2-GPU pair.
	Inventory fleet.Inventory
	Node      *gpuctl.Node
	DFK       *faas.DFK
	CPU       *htex.HTEX
	// Injector drives fault injection (nil when chaos is off).
	Injector *fault.Injector
	*sim
	opts Options
	gpu  *htex.HTEX
}

// NewPlatform builds the testbed with a started CPU executor; the GPU
// executor is added via ConfigureGPUExecutor once the partitioning is
// chosen.
func NewPlatform(opts Options) (*Platform, error) {
	o := opts.withDefaults()
	s, err := newSim(simgpu.PolicyTimeShare, o.DeviceSpecs...)
	if err != nil {
		return nil, err
	}
	s.observe("", o.OnCollector, o.TSDB)
	env, devices, collector := s.Env, s.Devices, s.Obs
	node := gpuctl.NewNode(env, devices...)
	if o.Observe {
		env.SetObserver(collector)
		for _, d := range devices {
			d.SetCollector(collector)
		}
	}
	cpu, err := htex.New(env, htex.Config{
		Label:      "cpu",
		MaxWorkers: o.CPUWorkers,
		Provider:   provider.NewLocal(env, node),
	})
	if err != nil {
		return nil, err
	}
	fcfg := faas.Config{
		Retries:   o.Retries,
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
	s.ledger = dfk.Ledger()
	pl := &Platform{
		sim:       s,
		Inventory: fleet.NewInventory(o.DeviceSpecs...),
		Node:      node,
		DFK:       dfk,
		CPU:       cpu,
		opts:      o,
	}
	if o.SLO != "" {
		rules, err := analyze.ParseSLOSpec(o.SLO)
		if err != nil {
			return nil, err
		}
		s.SLOMon = analyze.NewMonitor(collector, env, rules, s.TSDB)
	}
	if o.Chaos != nil {
		inj := fault.New(env, *o.Chaos, collector)
		inj.AttachPool(cpu)
		for _, d := range devices {
			inj.AttachDevice(d)
		}
		dfk.SetDispatchFault(func(*faas.Task) error { return inj.SubmitFault() })
		pl.Injector = inj
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
	gpu, err := pl.addExecutor(htex.Config{
		Label:                 "gpu",
		AvailableAccelerators: accelerators,
		GPUPercentages:        percentages,
	})
	if gpu != nil {
		pl.gpu = gpu
	}
	return err
}

// addExecutor builds an executor from cfg on the platform's node, with
// the platform's worker cold start, hands it to the injector under
// chaos, and adds it to the DFK (started if the DFK is).
func (pl *Platform) addExecutor(cfg htex.Config) (*htex.HTEX, error) {
	cfg.WorkerInit = pl.opts.WorkerInit
	cfg.Provider = provider.NewLocal(pl.Env, pl.Node)
	ex, err := htex.New(pl.Env, cfg)
	if err != nil {
		return nil, err
	}
	if pl.Injector != nil {
		pl.Injector.AttachPool(ex)
	}
	return ex, pl.DFK.AddExecutor(ex)
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

// Run starts the DFK (and, under chaos, the fault injector) and runs
// main as the workflow proc through the shell's drain sequence. The
// injector stops when main returns, so the event queue drains and the
// run terminates even with an unbounded fault schedule.
func (pl *Platform) Run(main func(p *devent.Proc) error) error {
	if err := pl.DFK.Start(); err != nil {
		return err
	}
	if pl.Injector != nil {
		pl.Injector.Start()
	}
	return pl.run(func(p *devent.Proc) error {
		if pl.Injector != nil {
			defer pl.Injector.Stop()
		}
		return main(p)
	})
}
