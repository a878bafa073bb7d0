package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/faas"
	"repro/internal/faas/htex"
	"repro/internal/faas/provider"
	"repro/internal/gpuctl"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/tsdb"
	"repro/internal/simgpu"
)

// AutoscaleConfig drives the SLO-driven autoscaling scenario: one
// serving cell — a pool of single-GPU nodes behind a Slurm-like
// provider, one GPU executor, one inference app — under diurnal,
// bursty open-loop traffic. The cell either holds a static block
// count for the whole run (StaticBlocks > 0: classic provisioned
// capacity) or runs the hybrid autoscaler (StaticBlocks == 0:
// burn-driven block scaling plus admission control). Comparing the
// two modes on the same traffic is the experiment: SLO attainment
// versus GPU-seconds paid.
type AutoscaleConfig struct {
	// GPUs is the provider pool size (default 6).
	GPUs int
	// GrantDelay is the provider's provisioning latency per block
	// (default 30s — the cluster-scheduler component of cold start).
	GrantDelay time.Duration
	// WorkerInit is the worker cold-start component (default 10s).
	WorkerInit time.Duration
	// ServiceTime is each request's GPU kernel time on a whole device
	// (default 1s).
	ServiceTime time.Duration
	// Traffic is the arrival process; a zero Horizon selects the
	// default diurnal scenario (two 1h cycles, peak 4 req/s, night
	// cutoff, one 3× burst at the first peak).
	Traffic TrafficConfig
	// SLOLatency/SLOTarget/SLOWindow define the latency objective
	// (defaults: 15s end-to-end for 90% over 5min windows).
	SLOLatency time.Duration
	SLOTarget  float64
	SLOWindow  time.Duration
	// StaticBlocks, when positive, provisions that many blocks for the
	// whole run and disables the autoscaler — the baseline cells.
	StaticBlocks int
	// DrainHold keeps the cell open this long after the last request
	// resolves, long enough for the autoscaler's idle window to elapse
	// — the scale-to-zero demonstration. Static cells pay their blocks
	// through the hold. Default 0.
	DrainHold time.Duration
	// Policy is the autoscaler policy (zero fields take the package
	// defaults; MaxBlocks defaults to GPUs).
	Policy autoscale.Spec
	// Seed drives traffic and shed draws (default 1).
	Seed int64
	// OnCollector attaches streaming sinks, as in FleetConfig.
	OnCollector func(*obs.Collector)
	// Attach, when set, is called with the cell's collector and store
	// (see AttachFunc). The cell always has a store: the controller
	// reads its burn series.
	Attach AttachFunc
}

// WithDefaults fills unset fields with the scenario defaults.
func (c AutoscaleConfig) WithDefaults() AutoscaleConfig {
	if c.GPUs <= 0 {
		c.GPUs = 6
	}
	if c.GrantDelay <= 0 {
		c.GrantDelay = 30 * time.Second
	}
	if c.WorkerInit <= 0 {
		c.WorkerInit = 10 * time.Second
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Traffic.Horizon <= 0 {
		c.Traffic = TrafficConfig{
			Users:       100_000,
			PerUserRate: 4e-5, // 4 req/s aggregate at peak
			Period:      time.Hour,
			TroughFrac:  0.02,
			Cutoff:      0.3, // night: ~4.6 min of true zero around each trough
			Horizon:     2 * time.Hour,
			Bursts:      []Burst{{At: 28 * time.Minute, Duration: 5 * time.Minute, Multiplier: 3}},
		}
	}
	if c.Traffic.Seed == 0 {
		c.Traffic.Seed = c.Seed
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = 15 * time.Second
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = 0.9
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = 5 * time.Minute
	}
	if c.Policy.MaxBlocks == 0 {
		c.Policy.MaxBlocks = c.GPUs
	}
	if c.Policy.Seed == 0 {
		c.Policy.Seed = c.Seed
	}
	return c
}

// AutoscaleResult aggregates one cell's run. Every field except the
// Obs/TSDB handles is virtual and deterministic in (config, seed).
type AutoscaleResult struct {
	// Autoscaled distinguishes the hybrid cell from static baselines;
	// Blocks is the static size (or the policy ceiling when autoscaled).
	Autoscaled bool
	Blocks     int

	// Demand and outcomes.
	Arrivals  int
	Completed int // terminal done
	Good      int // done within SLOLatency end-to-end
	Shed      int
	Failed    int
	// Attainment is Good/Arrivals: sheds and failures count against
	// the objective — rejected demand is not served demand.
	Attainment float64
	ShedRate   float64

	// Served-latency distribution (completed tasks only).
	Latencies *metrics.Durations

	// Economics. GPUSeconds integrates blocks held over virtual time;
	// GPUSecondsPerGood is the cost per SLO-meeting request. ColdStarts
	// counts worker spawns (block provisions × workers per block);
	// TasksPerColdStart is how many completions each cold start
	// amortized over.
	GPUSeconds        float64
	GPUSecondsPerGood float64
	ColdStarts        int
	TasksPerColdStart float64

	// Autoscaler activity (zero for static cells).
	ScaleOuts   int
	ScaleIns    int
	PeakBlocks  int
	FinalBlocks int

	Makespan time.Duration
	Events   int64

	Obs  *obs.Collector
	TSDB *tsdb.DB
}

// RunAutoscale runs one serving cell against the configured traffic.
func RunAutoscale(cfg AutoscaleConfig) (*AutoscaleResult, error) {
	cfg = cfg.WithDefaults()
	if cfg.StaticBlocks > cfg.GPUs {
		return nil, fmt.Errorf("core: %d static blocks exceed the %d-GPU pool", cfg.StaticBlocks, cfg.GPUs)
	}
	s := newCell("autoscale", cfg.OnCollector, &tsdb.Config{})
	defer s.Env.Close()
	s.attach(cfg.Attach)
	env, col, db := s.Env, s.Obs, s.TSDB

	spec := simgpu.A100SXM480GB()
	nodes := make([]*gpuctl.Node, cfg.GPUs)
	for i := range nodes {
		dev, err := simgpu.NewDevice(env, fmt.Sprintf("n%d-gpu", i), spec)
		if err != nil {
			return nil, err
		}
		nodes[i] = gpuctl.NewNode(env, dev)
	}
	slurm := provider.NewSlurm(env, cfg.GrantDelay, nodes...)

	initial := cfg.StaticBlocks
	if initial <= 0 {
		initial = 1 // the autoscaled cell boots with one block
	}
	ex, err := htex.New(env, htex.Config{
		Label:                 "gpu",
		AvailableAccelerators: []string{"0"},
		WorkerInit:            cfg.WorkerInit,
		Provider:              slurm,
		Blocks:                initial,
	})
	if err != nil {
		return nil, err
	}
	dfk := faas.NewDFK(env, faas.Config{Collector: col}, ex)
	s.ledger = dfk.Ledger()
	kernel := simgpu.Kernel{Name: "infer", FLOPs: cfg.ServiceTime.Seconds() * spec.FP32FLOPS}
	dfk.Register(faas.App{Name: "infer", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		ctx, err := inv.GPU()
		if err != nil {
			return nil, err
		}
		_, err = ctx.Run(inv.Proc(), kernel)
		return nil, err
	}})
	s.SLOMon = analyze.NewMonitor(col, env, []analyze.Rule{
		{App: "infer", Latency: cfg.SLOLatency, Target: cfg.SLOTarget, Window: cfg.SLOWindow},
	}, db)
	s.addAlerts(AutoscaleAlertRules(cfg))

	var ctl *autoscale.Controller
	if cfg.StaticBlocks <= 0 {
		ctl, err = autoscale.New(autoscale.Config{
			Env: env, Obs: col, DB: db, Spec: cfg.Policy,
			Exec: ex, DFK: dfk, Apps: []string{"infer"},
		})
		if err != nil {
			return nil, err
		}
	}
	if err := dfk.Start(); err != nil {
		return nil, err
	}
	if ctl != nil {
		ctl.Start()
	}

	res := &AutoscaleResult{
		Autoscaled: ctl != nil,
		Blocks:     cfg.StaticBlocks,
		Latencies:  &metrics.Durations{},
		Obs:        col,
		TSDB:       db,
	}
	if ctl != nil {
		res.Blocks = cfg.Policy.MaxBlocks
	}
	tr, err := NewTraffic(cfg.Traffic)
	if err != nil {
		return nil, err
	}

	tally := func(f *faas.Future) {
		switch err := f.Event().Err(); {
		case err == nil:
			res.Completed++
			lat := f.Task().EndTime - f.Task().SubmitTime
			res.Latencies.Add(lat)
			if lat <= cfg.SLOLatency {
				res.Good++
			}
		case errors.Is(err, faas.ErrShed):
			res.Shed++
		default:
			res.Failed++
		}
	}
	// The main is a Step: open-loop arrivals, every future tallied in
	// submission order, then the drain hold. It sleeps with
	// ScheduleStep and awaits futures with Then, where a main proc
	// would sleep and wait. slept marks an arrival whose sleep has
	// elapsed; draining and holding mark the last two stages.
	var futs []*faas.Future
	var endAt time.Duration
	slept, draining, holding := false, false, false
	var driver stepFunc
	driver = func() {
		if !draining {
			if slept {
				futs = append(futs, dfk.Submit("infer"))
				res.Arrivals++
				if b := ex.Blocks(); b > res.PeakBlocks {
					res.PeakBlocks = b
				}
				// Tally the finished futures at the front as the run
				// goes, in submission order as at the end, so the run
				// does not keep every task alive until then.
				for len(futs) > 0 && futs[0].Done() {
					tally(futs[0])
					futs[0] = nil
					futs = futs[1:]
				}
			}
			if at, ok := tr.Next(); ok {
				slept = true
				env.ScheduleStep(at-env.Now(), driver)
				return
			}
			draining = true
		}
		if !holding {
			for len(futs) > 0 {
				if futs[0].Event().Then(driver) {
					return
				}
				tally(futs[0])
				futs[0] = nil
				futs = futs[1:]
			}
			if b := ex.Blocks(); b > res.PeakBlocks {
				res.PeakBlocks = b
			}
			res.Makespan = env.Now()
			holding = true
			if cfg.DrainHold > 0 {
				env.ScheduleStep(cfg.DrainHold, driver)
				return
			}
		}
		res.FinalBlocks = ex.Blocks()
		endAt = env.Now()
		if ctl != nil {
			ctl.Stop() // closes the block-seconds integral
		}
		s.exit(nil)
	}
	if err := s.runStep(driver); err != nil {
		return nil, err
	}

	if ctl != nil {
		res.ScaleOuts = ctl.ScaleOuts()
		res.ScaleIns = ctl.ScaleIns()
		res.GPUSeconds = ctl.BlockSeconds()
		// One block = one worker here: the boot block plus every
		// scale-out grant is a cold start.
		res.ColdStarts = initial + int(col.Metrics().Counter("autoscale_scale_out_total").Value())
	} else {
		res.GPUSeconds = float64(cfg.StaticBlocks) * endAt.Seconds()
		res.ColdStarts = cfg.StaticBlocks
	}
	if res.Arrivals > 0 {
		res.Attainment = float64(res.Good) / float64(res.Arrivals)
		res.ShedRate = float64(res.Shed) / float64(res.Arrivals)
	}
	if res.Good > 0 {
		res.GPUSecondsPerGood = res.GPUSeconds / float64(res.Good)
	}
	if res.ColdStarts > 0 {
		res.TasksPerColdStart = float64(res.Completed) / float64(res.ColdStarts)
	}
	res.Events = env.EventsDispatched()
	return res, nil
}
