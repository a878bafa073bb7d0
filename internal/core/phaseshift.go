package core

import (
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/faas/htex"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/repart"
	"repro/internal/simgpu"
	"repro/internal/weightcache"
)

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
	// static plan.
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
	// Failed counts completions whose futures failed terminally
	// (always 0 without chaos: any failure aborts the run instead).
	Failed int
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
	pl.attach(c.Attach)
	dev := pl.Devices[0]
	model := llm.LLaMa27B()
	cache := weightcache.New()

	res := &PhaseShiftResult{
		Mode:      c.Mode,
		Repart:    c.Repart != nil,
		Latencies: &metrics.Durations{},
	}

	// Per-tenant apps: each tenant's service attaches its model through
	// the shared cache, so a repartitioned worker skips the reload.
	for _, t := range []string{"a", "b"} {
		pl.registerLLaMa(llamaService{
			exec: "ten-" + t, load: "load-" + t, serve: "svc-" + t,
			model: model, prompt: c.PromptTokens, output: c.OutputTokens,
			cache: cache, key: "model-" + t,
		})
	}

	var ctl *repart.Controller
	runErr := pl.Run(func(p *devent.Proc) error {
		// Initial partitioning: the chosen static plan, or — under the
		// controller — an even MPS split (mode=mig starts on the bare
		// device; the first transition installs the MIG layout).
		mode := c.Mode
		if c.Repart != nil {
			mode = ModeMPS
			if c.Repart.Mode == repart.ModeMIG {
				mode = ModeTimeshare
			}
		}
		accels, pcts, err := pl.partition(p, mode, 2)
		if err != nil {
			return err
		}
		tenants := make([]repart.Tenant, 2)
		for i, t := range []string{"a", "b"} {
			cfg := htex.Config{Label: "ten-" + t, AvailableAccelerators: accels[i : i+1]}
			if pcts != nil {
				cfg.GPUPercentages = pcts[i : i+1]
			}
			ex, err := pl.addExecutor(cfg)
			if err != nil {
				return err
			}
			tenants[i] = repart.Tenant{Name: t, App: "svc-" + t, Exec: ex, Accelerator: "0",
				WeightBytes: model.WeightBytes(), WorkspaceBytes: model.WorkspaceBytes}
		}
		if c.Repart != nil {
			ctl, err = repart.New(repart.Config{
				Env:     pl.Env,
				Spec:    *c.Repart,
				Obs:     pl.Obs,
				Device:  dev,
				Cache:   cache,
				Tenants: tenants,
			})
			if err != nil {
				return err
			}
			ctl.Start()
			defer ctl.Stop()
		}

		// Pre-warm one load per tenant (excluded from the makespan, as
		// in the multiplex experiment). Under chaos a failed preload is
		// tolerated — that worker simply cold-loads on first use.
		t0 := p.Now()
		loadA := pl.DFK.Submit("load-a")
		loadB := pl.DFK.Submit("load-b")
		for _, f := range []*faas.Future{loadA, loadB} {
			if _, err := f.Result(p); err != nil && pl.Injector == nil {
				return err
			}
		}
		res.PreloadTime = p.Now() - t0

		// Workload drivers. Without chaos any terminal task failure is
		// fatal: the retry/backoff budget must absorb every
		// repartitioning restart. Under chaos a completion that fails
		// terminally (its retries exhausted) is counted, not fatal.
		record := func(v any, err error) error {
			switch {
			case err == nil:
				res.Latencies.Add(v.(time.Duration))
			case pl.Injector != nil:
				res.Failed++
			default:
				return err
			}
			return nil
		}
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
				if err := record(f.Result(dp)); err != nil {
					return err
				}
			}
			return nil
		}
		serve := func(dp *devent.Proc, app string) error {
			return record(pl.DFK.Submit(app).Result(dp))
		}
		trickle := func(dp *devent.Proc, app string, n int) error {
			for i := 0; i < n; i++ {
				if err := serve(dp, app); err != nil {
					return err
				}
				if i < n-1 {
					dp.Sleep(c.LightEvery)
				}
			}
			return nil
		}
		trickleUntil := func(dp *devent.Proc, app string, until time.Duration) error {
			for dp.Now() < until {
				if err := serve(dp, app); err != nil {
					return err
				}
				if wait := until - dp.Now(); wait > 0 {
					dp.Sleep(min(wait, c.LightEvery))
				}
			}
			return nil
		}

		start := p.Now()
		phaseAt := start + c.PhaseAt
		var errA, errB error
		doneA := pl.Env.NewEvent()
		doneB := pl.Env.NewEvent()
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
