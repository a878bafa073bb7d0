package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/simgpu"
)

// ScaleConfig drives the million-task throughput scenario: an
// open-loop stream of CPU microtasks sharded across independent
// platform instances. Each shard is one deterministic simulation
// (its own Env, DFK, and CPU executor); shards share nothing, so the
// harness runs them concurrently while every virtual quantity —
// makespans, latencies, span and event counts — is independent of the
// worker count. The scenario exists to stress the span-collection
// path at 10^6 tasks / 10^7 events: in snapshot mode the collector
// retains every span, in streaming mode (per-shard Sinks) the
// retained window stays bounded.
type ScaleConfig struct {
	// Tasks is the total task count across all shards (default 1e6).
	Tasks int
	// Shards is the number of independent platform instances the tasks
	// are partitioned over (default 8). The partition is contiguous and
	// depends only on (Tasks, Shards), never on scheduling.
	Shards int
	// Workers sizes each shard's CPU executor (default 16).
	Workers int
	// Window bounds in-flight submissions per shard: the submitter
	// awaits the oldest outstanding future once Window tasks are in
	// flight (default 64). This keeps open-loop overload from growing
	// the task backlog without bound.
	Window int
	// ArrivalRate is the per-shard offered load in tasks/second
	// (default 8000 — half the capacity of 16 workers at 2 ms mean
	// service).
	ArrivalRate float64
	// MeanService is the mean of the exponential service-time draw
	// (default 2 ms).
	MeanService time.Duration
	// Seed drives each shard's arrival/service draws (shard i uses
	// Seed+i; default 1).
	Seed int64
	// SampleMod, when > 1, enables deterministic span sampling on each
	// shard's collector: roughly 1/SampleMod of task trees reach the
	// sink. Only meaningful with Sinks.
	SampleMod int
	// Sinks, when non-nil, must hold one SpanSink per shard; each
	// shard's collector streams its spans to its sink, so collection
	// memory is bounded by the retained window instead of the span
	// count. Nil keeps snapshot collection.
	Sinks []obs.SpanSink
	// TSDB, when set, gives every shard platform its own virtual-time
	// series store with the default config (see Options.TSDB).
	TSDB bool
	// Attach, when set, is called once per shard with the shard's
	// collector and store (see AttachFunc), from the shard's harness
	// worker.
	Attach AttachFunc
	// Telemetry, when non-nil, receives wall-side progress callbacks.
	// Nil keeps the run byte-identical to the seed.
	Telemetry *ScaleTelemetry
}

// ScaleProgress receives completion callbacks from a running scale
// scenario, on the harness workers driving the shards —
// implementations must be safe for concurrent use and must not touch
// any shard's virtual state.
type ScaleProgress interface {
	ShardStarted(shard int)
	TasksDone(n int)
	ShardFinished(shard int)
}

// ScaleTelemetry reports a scale run's progress to the wall side.
type ScaleTelemetry struct {
	// Progress, when non-nil, receives shard lifecycle and batched
	// task-completion callbacks.
	Progress ScaleProgress
}

// WithDefaults returns the config with every unset field filled in —
// the exact parameters RunMillionTask will use.
func (c ScaleConfig) WithDefaults() ScaleConfig {
	if c.Tasks <= 0 {
		c.Tasks = 1_000_000
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 8000
	}
	if c.MeanService <= 0 {
		c.MeanService = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ShardScaleResult is one shard's contribution, in shard order.
type ShardScaleResult struct {
	Shard int
	Tasks int
	// Events is the shard Env's dispatched-event count.
	Events int64
	// Resumes is the shard Env's proc-resume count (devent.Env.Resumes).
	Resumes int64
	// Spans is the total span count the collector assigned IDs to.
	Spans int
	// MaxRetained is the collector's retained-window high-water mark —
	// the bounded-memory claim is MaxRetained << Spans in streaming
	// mode.
	MaxRetained int
	// Makespan is the shard's virtual time at drain.
	Makespan time.Duration
	// TSDB is the shard's series store (nil unless ScaleConfig.TSDB).
	TSDB *tsdb.DB
}

// ScaleResult aggregates a RunMillionTask run. All fields except the
// shards' TSDB handles are virtual (deterministic at any parallelism);
// wall-clock throughput is the caller's business (the report layer
// times the call).
type ScaleResult struct {
	Tasks  int
	Shards []ShardScaleResult
	// Events is the total dispatched-event count across shards.
	Events int64
	// Resumes is the total proc-resume count across shards.
	Resumes int64
	// Spans is the total span count across shards.
	Spans int64
	// MaxRetained is the largest per-shard retained-window high-water.
	MaxRetained int
	// Makespan is the longest shard makespan (shards run concurrently
	// in the fiction of the scenario, so the slowest shard bounds it).
	Makespan time.Duration
	// Latencies holds every task's end-to-end latency across shards.
	Latencies *metrics.Durations
}

// RunMillionTask runs the sharded open-loop microtask scenario:
// Poisson arrivals, exponential service times, a bounded in-flight
// window, one platform per shard. Shards execute through
// harness.ShardMap, so wall-clock time scales with cores while every
// returned field is byte-for-byte reproducible.
func RunMillionTask(cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.WithDefaults()
	if cfg.Sinks != nil && len(cfg.Sinks) != cfg.Shards {
		return nil, fmt.Errorf("core: %d sinks for %d shards", len(cfg.Sinks), cfg.Shards)
	}
	shardRes, err := harness.ShardMap(cfg.Tasks, cfg.Shards,
		func(shard int, r harness.Range) (shardScaleOut, error) {
			var sink obs.SpanSink
			if cfg.Sinks != nil {
				sink = cfg.Sinks[shard]
			}
			return runScaleShard(cfg, shard, r.Len(), sink)
		})
	if err != nil {
		return nil, err
	}
	res := &ScaleResult{Tasks: cfg.Tasks, Latencies: &metrics.Durations{}}
	for i := range shardRes {
		sr := shardRes[i].ShardScaleResult
		res.Shards = append(res.Shards, sr)
		res.Events += sr.Events
		res.Resumes += sr.Resumes
		res.Spans += int64(sr.Spans)
		if sr.MaxRetained > res.MaxRetained {
			res.MaxRetained = sr.MaxRetained
		}
		if sr.Makespan > res.Makespan {
			res.Makespan = sr.Makespan
		}
		for _, lat := range shardRes[i].lats {
			res.Latencies.Add(lat)
		}
	}
	return res, nil
}

// shardScaleOut bundles a shard's summary with its latency samples,
// which only the merge step needs.
type shardScaleOut struct {
	ShardScaleResult
	lats []time.Duration
}

// runScaleShard drives one shard: a fresh platform with a CPU-only
// executor, optionally streaming its spans to sink.
func runScaleShard(cfg ScaleConfig, shard, tasks int, sink obs.SpanSink) (shardScaleOut, error) {
	sr := shardScaleOut{ShardScaleResult: ShardScaleResult{Shard: shard, Tasks: tasks}}
	var tel ScaleTelemetry
	if cfg.Telemetry != nil {
		tel = *cfg.Telemetry
	}
	opts := Options{
		// One small device keeps per-shard setup cheap; the scenario
		// never touches it (pure CPU microtasks).
		DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()},
		CPUWorkers:  cfg.Workers,
	}
	if cfg.TSDB {
		opts.TSDB = &tsdb.Config{}
	}
	pl, err := NewPlatform(opts)
	if err != nil {
		return sr, err
	}
	defer pl.Env.Close()
	pl.addAlerts(ScaleAlertRules())
	sr.TSDB = pl.TSDB
	if sink != nil {
		pl.Obs.SetSink(sink)
		if cfg.SampleMod > 1 {
			pl.Obs.SetSampleMod(cfg.SampleMod)
		}
	}
	// Shard i is process i+1 of the scale trace export.
	pl.Obs.SetScope(fmt.Sprintf("scale/shard%d", shard))
	pl.Obs.SetTracePID(shard + 1)
	pl.attach(cfg.Attach)
	if tel.Progress != nil {
		tel.Progress.ShardStarted(shard)
		defer tel.Progress.ShardFinished(shard)
	}
	pl.Register(faas.App{Name: "micro", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		d, _ := inv.Arg(0).(time.Duration)
		inv.Compute(d)
		return nil, nil
	}})
	rng := rand.New(rand.NewSource(cfg.Seed + int64(shard)))
	window := make([]*faas.Future, 0, cfg.Window)
	sr.lats = make([]time.Duration, 0, tasks)
	// Progress batches completions so the wall-side mutex is taken
	// once per batch, not once per task.
	const progressBatch = 1024
	unreported := 0
	note := func() {
		unreported++
		if unreported >= progressBatch && tel.Progress != nil {
			tel.Progress.TasksDone(unreported)
			unreported = 0
		}
	}
	// The arrival loop is a Step: Poisson arrivals, each submitted once
	// the window has room, then the window awaited in submission order.
	// It sleeps with ScheduleStep and awaits the oldest future with
	// Then, where a main proc would sleep and wait. arrived counts the
	// submitted tasks; sleeping marks a pending gap, and pending an
	// arrival whose gap has elapsed, holding its service time svc until
	// the window has room.
	arrived, sleeping, pending := 0, false, false
	var svc time.Duration
	var driver devent.StepFunc
	driver = func() {
		if sleeping {
			sleeping, pending = false, true
			svc = time.Duration(rng.ExpFloat64() * float64(cfg.MeanService))
		}
		for {
			if pending && len(window) == cfg.Window || !pending && arrived == tasks && len(window) > 0 {
				f := window[0]
				if f.Event().Then(driver) {
					return
				}
				if err := f.Event().Err(); err != nil {
					pl.exit(err)
					return
				}
				t := f.Task()
				sr.lats = append(sr.lats, t.EndTime-t.SubmitTime)
				note()
				window = append(window[:0], window[1:]...)
				continue
			}
			if pending {
				pending = false
				arrived++
				window = append(window, pl.DFK.Submit("micro", svc))
				continue
			}
			if arrived == tasks {
				break
			}
			sleeping = true
			pl.Env.ScheduleStep(time.Duration(rng.ExpFloat64()/cfg.ArrivalRate*float64(time.Second)), driver)
			return
		}
		if unreported > 0 && tel.Progress != nil {
			tel.Progress.TasksDone(unreported)
		}
		pl.exit(nil)
	}
	runErr := pl.runStep(driver)
	if runErr != nil {
		return sr, runErr
	}
	if sink != nil {
		// Flush the tail of the stream — parked worker daemons and any
		// still-open spans, clamped — so a spilled trace is complete.
		pl.Obs.Close()
	}
	sr.Events = pl.Env.EventsDispatched()
	sr.Resumes = pl.Env.Resumes()
	sr.Spans = pl.Obs.Len()
	sr.MaxRetained = pl.Obs.MaxRetained()
	sr.Makespan = pl.Env.Now()
	return sr, nil
}
