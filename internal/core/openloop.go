package core

import (
	"math/rand"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/simgpu"
)

// OpenLoopConfig drives the §5.2 serving scenario as an open system:
// chatbot requests from independent clients arrive as a Poisson
// process and queue for the N model instances, instead of the
// closed-loop "100 completions divided across processes" of Fig. 4.
// Open-loop arrivals expose *stability*: a technique whose service
// capacity is below the offered load builds an unbounded backlog.
type OpenLoopConfig struct {
	Mode      Mode
	Processes int
	// ArrivalRate is offered load in requests/second.
	ArrivalRate float64
	// Requests is the total number of arrivals.
	Requests int
	// Seed drives the exponential inter-arrival draws.
	Seed int64
}

// OpenLoopResult summarizes an open-loop run.
type OpenLoopResult struct {
	Mode      Mode
	Processes int
	// Latencies are end-to-end (queue + service) per served request.
	Latencies *metrics.Durations
	// ServiceCapacity is served requests/second actually sustained.
	ServiceCapacity float64
	// Stable reports whether the backlog stayed bounded: an unstable
	// queue (offered load above capacity) shows monotonically growing
	// waits, so the last quartile of arrivals waits far longer than
	// the first.
	Stable   bool
	Makespan time.Duration
	// Failed counts requests whose futures failed terminally (always 0
	// without chaos: any failure aborts the run instead); they are
	// excluded from Latencies and ServiceCapacity.
	Failed int
}

// RunOpenLoop submits Poisson arrivals to the partitioned platform.
func RunOpenLoop(cfg OpenLoopConfig) (*OpenLoopResult, error) {
	if cfg.Processes <= 0 {
		cfg.Processes = 4
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 60
	}
	if cfg.ArrivalRate <= 0 {
		cfg.ArrivalRate = 0.4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		return nil, err
	}
	defer pl.Env.Close()
	pl.registerLLaMa(llamaService{
		exec: "gpu", load: "load", serve: "chat",
		model: servedModel(llm.LLaMa27B(), cfg.Mode, cfg.Processes), prompt: 20, output: 20,
	})

	res := &OpenLoopResult{Mode: cfg.Mode, Processes: cfg.Processes, Latencies: &metrics.Durations{}}
	var ordered []time.Duration
	runErr := pl.Run(func(p *devent.Proc) error {
		accels, pcts, err := pl.partition(p, cfg.Mode, cfg.Processes)
		if err != nil {
			return err
		}
		if err := pl.ConfigureGPUExecutor(p, accels, pcts); err != nil {
			return err
		}
		// Pre-warm all instances. Under chaos a failed preload is
		// tolerated — that worker simply cold-loads on first use.
		loads := make([]*devent.Event, cfg.Processes)
		for i := range loads {
			loads[i] = pl.DFK.Submit("load").Event()
		}
		for _, ld := range loads {
			if _, err := p.Wait(ld); err != nil && pl.Injector == nil {
				return err
			}
		}

		rng := rand.New(rand.NewSource(cfg.Seed))
		start := p.Now()
		futs := make([]*faas.Future, 0, cfg.Requests)
		for i := 0; i < cfg.Requests; i++ {
			gap := time.Duration(rng.ExpFloat64() / cfg.ArrivalRate * float64(time.Second))
			p.Sleep(gap)
			futs = append(futs, pl.DFK.Submit("chat"))
		}
		for _, f := range futs {
			if _, err := f.Result(p); err != nil {
				if pl.Injector == nil {
					return err
				}
				res.Failed++
				continue
			}
			// End-to-end latency includes queueing.
			lat := f.Task().EndTime - f.Task().SubmitTime
			res.Latencies.Add(lat)
			ordered = append(ordered, lat)
		}
		res.Makespan = p.Now() - start
		res.ServiceCapacity = metrics.Throughput(cfg.Requests-res.Failed, res.Makespan)
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	res.Stable = stableLatencies(ordered)
	return res, nil
}

// Stability test parameters. A queue above capacity shows waits that
// grow with every arrival, so the mean latency of the last quartile of
// arrivals ends up a multiple of the first quartile's. The test is
// purely relative — both means are in seconds and only their ratio
// matters — with an absolute floor (also in seconds) below which
// growth is considered jitter, not divergence: doubling from 0.8s to
// 1.6s on a warm-up transient is not an unbounded backlog.
const (
	// stableGrowthLimit is the maximum last/first quartile mean ratio
	// still considered bounded (dimensionless).
	stableGrowthLimit = 2.0
	// stableFloorSeconds exempts runs whose last-quartile mean stays
	// under this many seconds regardless of ratio.
	stableFloorSeconds = 5.0
)

// stableLatencies compares the mean end-to-end latency of the first
// and last arrival quartiles: bounded backlogs keep the two within
// stableGrowthLimit of each other, diverging queues do not. Earlier
// revisions used `last <= 2*max(first,1)+10`, which mixed a unitless
// slack constant with seconds and declared clearly-diverging short
// runs stable whenever the absolute waits were still under ~12s.
func stableLatencies(ordered []time.Duration) bool {
	q := len(ordered) / 4
	if q == 0 {
		return true
	}
	mean := func(xs []time.Duration) float64 {
		var sum float64
		for _, x := range xs {
			sum += x.Seconds()
		}
		return sum / float64(len(xs))
	}
	first := mean(ordered[:q])
	last := mean(ordered[len(ordered)-q:])
	return last <= stableFloorSeconds || last <= stableGrowthLimit*first
}
