package core

import (
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/simgpu"
)

// MultiplexConfig parameterizes the Fig. 4/5 experiment.
type MultiplexConfig struct {
	// Mode is the sharing technique.
	Mode Mode
	// Processes is the number of concurrent model instances (1–4).
	Processes int
	// Completions is the total work, divided dynamically across
	// processes (paper: 100).
	Completions int
	// PromptTokens and OutputTokens shape each completion (paper: a
	// 20-word sentence).
	PromptTokens, OutputTokens int
	// Model overrides the service config (zero value: LLaMa-2-7B
	// fp16, the footprint at which exactly four instances fit 80 GB).
	Model llm.Config
	// Observe enables deep instrumentation (kernel spans, scheduler
	// counters); the result then carries the collector for export.
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
	// Chaos enables seeded fault injection for the run (nil falls
	// back to the process-wide SetChaos spec). Under chaos the run
	// tolerates terminally failed completions — counted in
	// MultiplexResult.Failed — instead of aborting.
	Chaos *fault.Spec
}

func (c MultiplexConfig) withDefaults() MultiplexConfig {
	if c.Processes <= 0 {
		c.Processes = 1
	}
	if c.Completions <= 0 {
		c.Completions = 100
	}
	if c.PromptTokens <= 0 {
		c.PromptTokens = 20
	}
	if c.OutputTokens <= 0 {
		c.OutputTokens = 20
	}
	if c.Model.Spec.Layers == 0 {
		c.Model = llm.LLaMa27B()
	}
	c.Model = servedModel(c.Model, c.Mode, c.Processes)
	return c
}

// MultiplexResult is one bar of Figs. 4 and 5.
type MultiplexResult struct {
	Mode        Mode
	Processes   int
	Completions int
	// PreloadTime covers model loading before measurement starts
	// (excluded from Makespan, as the paper pre-warms the models).
	PreloadTime time.Duration
	// Makespan is the total task completion time (Fig. 4).
	Makespan time.Duration
	// Latencies are per-completion latencies (Fig. 5 uses the mean).
	Latencies *metrics.Durations
	// Throughput is completions per second.
	Throughput float64
	// Utilization is the device's mean busy-SM fraction during the
	// measured window.
	Utilization float64
	// ContextSwitches counts scheduling switches on the device
	// (time-share penalties plus vGPU rotations) over the whole run.
	ContextSwitches int
	// Obs is the run's collector (spans and metrics for export).
	Obs *obs.Collector
	// Failed counts completions whose futures failed terminally
	// (always 0 without chaos: any failure aborts the run instead).
	Failed int
	// Faults is how many faults the injector fired (0 without chaos).
	Faults int
	// Ledger is the run's task ledger; the run succeeded, so it
	// balances.
	Ledger *faas.Ledger
}

// MeanLatency returns the average per-inference latency (Fig. 5).
func (r *MultiplexResult) MeanLatency() time.Duration { return r.Latencies.Mean() }

// RunMultiplex executes the paper's multiplexed-vs-non-multiplexed
// experiment (§5.2): N concurrent LLaMa-2 service processes on one
// A100-80GB share 100 text completions under the chosen technique.
func RunMultiplex(cfg MultiplexConfig) (*MultiplexResult, error) {
	c := cfg.withDefaults()
	pl, err := NewPlatform(Options{
		DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()},
		Observe:     c.Observe,
		SLO:         c.SLO,
		TSDB:        c.TSDB,
		Chaos:       c.Chaos,
	})
	if err != nil {
		return nil, err
	}
	defer pl.Env.Close()
	pl.Obs.SetScope(fmt.Sprintf("multiplex/%s/p%d", c.Mode, c.Processes))
	pl.attach(c.Attach)
	dev := pl.Devices[0]

	res := &MultiplexResult{
		Mode:        c.Mode,
		Processes:   c.Processes,
		Completions: c.Completions,
		Latencies:   &metrics.Durations{},
	}

	pl.registerLLaMa(llamaService{
		exec: "gpu", load: "llama-load", serve: "llama-complete",
		model: c.Model, prompt: c.PromptTokens, output: c.OutputTokens,
	})

	runErr := pl.Run(func(p *devent.Proc) error {
		accels, pcts, err := pl.partition(p, c.Mode, c.Processes)
		if err != nil {
			return err
		}
		if err := pl.ConfigureGPUExecutor(p, accels, pcts); err != nil {
			return err
		}

		// Pre-warm: one load per worker. Under chaos a failed preload
		// is tolerated — that worker simply cold-loads on first use.
		t0 := p.Now()
		loads := make([]*devent.Event, c.Processes)
		for i := range loads {
			loads[i] = pl.DFK.Submit("llama-load").Event()
		}
		for _, ld := range loads {
			if _, err := p.Wait(ld); err != nil && pl.Injector == nil {
				return err
			}
		}
		res.PreloadTime = p.Now() - t0

		// Measured phase: the 100 completions. Under chaos a future
		// that fails terminally (retries and deadline exhausted) is
		// counted, not fatal.
		start := p.Now()
		futs := make([]*faas.Future, c.Completions)
		for i := range futs {
			futs[i] = pl.DFK.Submit("llama-complete")
		}
		for _, f := range futs {
			v, err := f.Result(p)
			if err != nil {
				if pl.Injector == nil {
					return err
				}
				res.Failed++
				continue
			}
			res.Latencies.Add(v.(time.Duration))
		}
		end := p.Now()
		res.Makespan = end - start
		res.Throughput = metrics.Throughput(c.Completions-res.Failed, res.Makespan)
		res.Utilization = dev.Utilization(start, end)
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	res.ContextSwitches = dev.ContextSwitches()
	res.Obs = pl.Obs
	res.Ledger = pl.DFK.Ledger()
	if pl.Injector != nil {
		res.Faults = pl.Injector.Injected()
	}
	return res, nil
}
