package core

import (
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/faas/htex"
	"repro/internal/faas/provider"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/repart"
	"repro/internal/simgpu"
	"repro/internal/weightcache"
)

// globalRepart is the process-wide repartitioning spec installed by
// SetRepart; PhaseShiftConfig.Repart overrides it per run.
var globalRepart *repart.Spec

// SetRepart installs (or, with nil, removes) a process-wide
// repartitioning spec. The CLIs' -repart flag routes here so the
// phase-shift scenario gains the online controller without signature
// changes; with the flag unset every run stays byte-identical to the
// static experiments.
func SetRepart(s *repart.Spec) { globalRepart = s }

// PhaseShiftConfig parameterizes the repartitioning scenario: two
// LLaMa tenants on one A100 whose load phases are shifted against each
// other — tenant A bursts first while B trickles, then the roles swap
// at PhaseAt. A static Table 1 partitioning must provision each tenant
// for its peak the whole run; the controller re-partitions at the
// shift instead.
type PhaseShiftConfig struct {
	// Mode is the static partitioning baseline (Table 1). Ignored when
	// Repart is set.
	Mode Mode
	// Repart, when non-nil, runs the online controller instead of a
	// static plan. Deliberately no fallback to the SetRepart global:
	// the comparison report runs static and controlled cells in one
	// process, and the static baselines must stay static.
	Repart *repart.Spec
	// HeavyCompletions is each tenant's burst size (default 24).
	HeavyCompletions int
	// LightCompletions is each tenant's trickle size after its burst
	// (default 6).
	LightCompletions int
	// LightEvery spaces trickle submissions (default 8s).
	LightEvery time.Duration
	// PhaseAt is when tenant B's burst begins (default 60s).
	PhaseAt time.Duration
	// Concurrency is the closed-loop window during a burst (default 4).
	Concurrency int
	// PromptTokens and OutputTokens shape each completion (default
	// 20/20, as in the multiplex experiment).
	PromptTokens, OutputTokens int
	// Observe enables deep instrumentation.
	Observe bool
	// SLO, when non-empty, attaches the burn-rate monitor (see
	// Options.SLO for the spec format).
	SLO string
	// TSDB forwards to Options.TSDB: attach a virtual-time series
	// store scraping the run's registry (nil = off).
	TSDB *tsdb.Config
	// Attach, when set, is called with the run's collector and store
	// (see AttachFunc).
	Attach AttachFunc
}

func (c PhaseShiftConfig) withDefaults() PhaseShiftConfig {
	if c.Mode == "" {
		c.Mode = ModeMPS
	}
	if c.HeavyCompletions <= 0 {
		c.HeavyCompletions = 24
	}
	if c.LightCompletions <= 0 {
		c.LightCompletions = 6
	}
	if c.LightEvery <= 0 {
		c.LightEvery = 8 * time.Second
	}
	if c.PhaseAt <= 0 {
		c.PhaseAt = 60 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.PromptTokens <= 0 {
		c.PromptTokens = 20
	}
	if c.OutputTokens <= 0 {
		c.OutputTokens = 20
	}
	return c
}

// PhaseShiftResult is one row of the repartitioning comparison.
type PhaseShiftResult struct {
	Mode Mode
	// Repart reports whether the online controller drove the run.
	Repart bool
	// PreloadTime covers the pre-warm loads (excluded from Makespan).
	PreloadTime time.Duration
	// Makespan is the total task completion time for both tenants'
	// phase-shifted workloads — the scenario's figure of merit.
	Makespan time.Duration
	// Latencies are per-completion latencies across both tenants.
	Latencies *metrics.Durations
	// Transitions counts applied repartitionings (0 for static runs).
	Transitions int
	// CacheHits and CacheMisses are the weight cache's counters: every
	// post-transition worker restart should hit.
	CacheHits, CacheMisses int
	// Obs is the run's collector (spans and metrics for export).
	Obs *obs.Collector
}

// RunPhaseShift executes the phase-shifted two-tenant workload under a
// static Table 1 plan or, with cfg.Repart set, under the online
// repartitioning controller. Each tenant runs as its own executor (the
// paper's one-process-per-tenant deployment), sharing one weight cache
// so repartitioning restarts re-attach instead of reloading.
func RunPhaseShift(cfg PhaseShiftConfig) (*PhaseShiftResult, error) {
	c := cfg.withDefaults()
	pl, err := NewPlatform(Options{
		DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()},
		// Repartitioning restarts fail queued tasks with ErrShutdown;
		// retries with backoff ride tasks through the restart window.
		// The budget (~44 s of cumulative backoff) covers the slowest
		// transition — a MIG relayout draining both tenants before the
		// device reset.
		Retries:         12,
		RetryBackoff:    250 * time.Millisecond,
		RetryBackoffMax: 4 * time.Second,
		Observe:         c.Observe,
		SLO:             c.SLO,
		TSDB:            c.TSDB,
	})
	if err != nil {
		return nil, err
	}
	defer pl.Env.Close()
	label := string(c.Mode)
	if c.Repart != nil {
		label = "repart"
	}
	pl.Obs.SetScope("phaseshift/" + label)
	if c.Attach != nil {
		c.Attach(pl.Obs, pl.TSDB)
	}
	dev := pl.Devices[0]
	hostBW := dev.Spec().HostLoadBW
	model := llm.LLaMa27B()
	cache := weightcache.New()

	res := &PhaseShiftResult{
		Mode:      c.Mode,
		Repart:    c.Repart != nil,
		Latencies: &metrics.Durations{},
	}

	// Per-tenant apps: each tenant's service attaches its model through
	// the shared cache, so a repartitioned worker skips the reload.
	registerTenant := func(name, exec, key string) {
		getEngine := func(inv *faas.Invocation) (*llm.Engine, error) {
			if e, ok := inv.State()["engine"].(*llm.Engine); ok && e.Resident() {
				return e, nil
			}
			ctx, err := inv.GPU()
			if err != nil {
				return nil, err
			}
			e, _, err := cache.AttachOrLoad(inv.Proc(), key, model, []*simgpu.Context{ctx}, hostBW)
			if err != nil {
				return nil, err
			}
			inv.State()["engine"] = e
			return e, nil
		}
		pl.Register(faas.App{Name: "load-" + name, Executor: exec, Fn: func(inv *faas.Invocation) (any, error) {
			_, err := getEngine(inv)
			return nil, err
		}})
		pl.Register(faas.App{Name: "svc-" + name, Executor: exec, Fn: func(inv *faas.Invocation) (any, error) {
			e, err := getEngine(inv)
			if err != nil {
				return nil, err
			}
			comp, err := e.Complete(inv.Proc(), c.PromptTokens, c.OutputTokens)
			if err != nil {
				return nil, err
			}
			return comp.Latency, nil
		}})
	}
	registerTenant("a", "ten-a", "model-a")
	registerTenant("b", "ten-b", "model-b")

	var ctl *repart.Controller
	runErr := pl.Run(func(p *devent.Proc) error {
		// Initial partitioning: the chosen static plan, or — under the
		// controller — an even MPS split (mode=mig starts on the bare
		// device; the first transition installs the MIG layout).
		accels := [2][]string{{"0"}, {"0"}}
		var pcts [2][]int
		mode := c.Mode
		if c.Repart != nil {
			mode = ModeMPS
			if c.Repart.Mode == repart.ModeMIG {
				mode = ModeTimeshare
			}
		}
		switch mode {
		case ModeTimeshare:
		case ModeMPSDefault, ModeMPS:
			if _, err := pl.StartMPS(p, 0); err != nil {
				return err
			}
			if mode == ModeMPS {
				pcts[0], pcts[1] = []int{50}, []int{50}
			}
		case ModeMIG:
			uuids, err := pl.ConfigureMIG(p, 0, []string{"3g.40gb", "3g.40gb"})
			if err != nil {
				return err
			}
			accels[0], accels[1] = []string{uuids[0]}, []string{uuids[1]}
		case ModeVGPU:
			if err := dev.SetPolicy(simgpu.PolicyVGPU); err != nil {
				return err
			}
		default:
			return fmt.Errorf("core: unknown mode %q", c.Mode)
		}
		execs := make([]*htex.HTEX, 2)
		for i, label := range []string{"ten-a", "ten-b"} {
			ex, err := htex.New(pl.Env, htex.Config{
				Label:                 label,
				AvailableAccelerators: accels[i],
				GPUPercentages:        pcts[i],
				WorkerInit:            pl.opts.WorkerInit,
				Provider:              provider.NewLocal(pl.Env, pl.Node),
			})
			if err != nil {
				return err
			}
			if err := pl.DFK.AddExecutor(ex); err != nil {
				return err
			}
			execs[i] = ex
		}
		if c.Repart != nil {
			var err error
			ctl, err = repart.New(repart.Config{
				Env:    pl.Env,
				Spec:   *c.Repart,
				Obs:    pl.Obs,
				Device: dev,
				Cache:  cache,
				Tenants: []repart.Tenant{
					{Name: "a", App: "svc-a", Exec: execs[0], Accelerator: "0",
						WeightBytes: model.WeightBytes(), WorkspaceBytes: model.WorkspaceBytes},
					{Name: "b", App: "svc-b", Exec: execs[1], Accelerator: "0",
						WeightBytes: model.WeightBytes(), WorkspaceBytes: model.WorkspaceBytes},
				},
			})
			if err != nil {
				return err
			}
			ctl.Start()
			defer ctl.Stop()
		}

		// Pre-warm one load per tenant (excluded from the makespan, as
		// in the multiplex experiment).
		t0 := p.Now()
		loadA := pl.DFK.Submit("load-a")
		loadB := pl.DFK.Submit("load-b")
		for _, f := range []*faas.Future{loadA, loadB} {
			if _, err := f.Result(p); err != nil {
				return err
			}
		}
		res.PreloadTime = p.Now() - t0

		// Workload drivers. Any terminal task failure is fatal: the
		// retry/backoff budget must absorb every repartitioning restart.
		burst := func(dp *devent.Proc, app string) error {
			var futs []*faas.Future
			next := 0
			for next < c.HeavyCompletions || len(futs) > 0 {
				for len(futs) < c.Concurrency && next < c.HeavyCompletions {
					futs = append(futs, pl.DFK.Submit(app))
					next++
				}
				f := futs[0]
				futs = futs[1:]
				v, err := f.Result(dp)
				if err != nil {
					return err
				}
				res.Latencies.Add(v.(time.Duration))
			}
			return nil
		}
		trickle := func(dp *devent.Proc, app string, n int) error {
			for i := 0; i < n; i++ {
				v, err := pl.DFK.Submit(app).Result(dp)
				if err != nil {
					return err
				}
				res.Latencies.Add(v.(time.Duration))
				if i < n-1 {
					dp.Sleep(c.LightEvery)
				}
			}
			return nil
		}
		trickleUntil := func(dp *devent.Proc, app string, until time.Duration) error {
			for dp.Now() < until {
				v, err := pl.DFK.Submit(app).Result(dp)
				if err != nil {
					return err
				}
				res.Latencies.Add(v.(time.Duration))
				if wait := until - dp.Now(); wait > 0 {
					if wait > c.LightEvery {
						wait = c.LightEvery
					}
					dp.Sleep(wait)
				}
			}
			return nil
		}

		start := p.Now()
		phaseAt := start + c.PhaseAt
		var errA, errB error
		doneA := pl.Env.NewNamedEvent("phase-a-done")
		doneB := pl.Env.NewNamedEvent("phase-b-done")
		pl.Env.Spawn("tenant-a", func(dp *devent.Proc) {
			// A bursts first, then trickles.
			if errA = burst(dp, "svc-a"); errA == nil {
				errA = trickle(dp, "svc-a", c.LightCompletions)
			}
			doneA.Fire(nil)
		})
		pl.Env.Spawn("tenant-b", func(dp *devent.Proc) {
			// B trickles until the phase shift, then bursts.
			if errB = trickleUntil(dp, "svc-b", phaseAt); errB == nil {
				errB = burst(dp, "svc-b")
			}
			doneB.Fire(nil)
		})
		if _, err := p.Wait(doneA); err != nil {
			return err
		}
		if _, err := p.Wait(doneB); err != nil {
			return err
		}
		if errA != nil {
			return fmt.Errorf("core: tenant a: %w", errA)
		}
		if errB != nil {
			return fmt.Errorf("core: tenant b: %w", errB)
		}
		res.Makespan = p.Now() - start
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	if ctl != nil {
		res.Transitions = ctl.Transitions()
	}
	res.CacheHits, res.CacheMisses = cache.Hits(), cache.Misses()
	res.Obs = pl.Obs
	return res, nil
}
