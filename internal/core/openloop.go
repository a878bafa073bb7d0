package core

import (
	"math/rand"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/rightsize"
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
	// Latencies are end-to-end (queue + service) per request.
	Latencies *metrics.Durations
	// ServiceCapacity is requests/second actually sustained.
	ServiceCapacity float64
	// Stable reports whether the backlog stayed bounded: an unstable
	// queue (offered load above capacity) shows monotonically growing
	// waits, so the last quartile of arrivals waits far longer than
	// the first.
	Stable   bool
	Makespan time.Duration
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
	dev := pl.Devices[0]
	hostBW := dev.Spec().HostLoadBW
	model := llm.LLaMa27B()
	if cfg.Mode == ModeMIG && cfg.Processes == 4 {
		model.WeightBytesOverride = 6 * simgpu.GB
		model.WorkspaceBytes = 3 * simgpu.GB
	}

	getEngine := func(inv *faas.Invocation) (*llm.Engine, error) {
		if e, ok := inv.State()["engine"].(*llm.Engine); ok && e.Loaded() {
			return e, nil
		}
		ctx, err := inv.GPU()
		if err != nil {
			return nil, err
		}
		e := llm.New(model)
		if err := e.Load(inv.Proc(), []*simgpu.Context{ctx}, hostBW); err != nil {
			return nil, err
		}
		inv.State()["engine"] = e
		return e, nil
	}
	pl.Register(faas.App{Name: "load", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		_, err := getEngine(inv)
		return nil, err
	}})
	pl.Register(faas.App{Name: "chat", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		e, err := getEngine(inv)
		if err != nil {
			return nil, err
		}
		_, err = e.Complete(inv.Proc(), 20, 20)
		return nil, err
	}})

	res := &OpenLoopResult{Mode: cfg.Mode, Processes: cfg.Processes, Latencies: &metrics.Durations{}}
	var ordered []time.Duration
	runErr := pl.Run(func(p *devent.Proc) error {
		accels := make([]string, cfg.Processes)
		var pcts []int
		switch cfg.Mode {
		case ModeTimeshare, ModeVGPU:
			if cfg.Mode == ModeVGPU {
				if err := dev.SetPolicy(simgpu.PolicyVGPU); err != nil {
					return err
				}
			}
			for i := range accels {
				accels[i] = "0"
			}
		case ModeMPSDefault, ModeMPS:
			if _, err := pl.StartMPS(p, 0); err != nil {
				return err
			}
			for i := range accels {
				accels[i] = "0"
			}
			if cfg.Mode == ModeMPS {
				pcts, err = rightsize.EqualShares(dev.Spec(), cfg.Processes)
				if err != nil {
					return err
				}
			}
		case ModeMIG:
			layout, err := MIGLayoutFor(cfg.Processes)
			if err != nil {
				return err
			}
			uuids, err := pl.ConfigureMIG(p, 0, layout)
			if err != nil {
				return err
			}
			accels = uuids
		}
		if err := pl.ConfigureGPUExecutor(p, accels, pcts); err != nil {
			return err
		}
		// Pre-warm all instances.
		loads := make([]*devent.Event, cfg.Processes)
		for i := range loads {
			loads[i] = pl.DFK.Submit("load").Event()
		}
		if _, err := p.Wait(devent.AllOf(pl.Env, loads...)); err != nil {
			return err
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
				return err
			}
			// End-to-end latency includes queueing.
			lat := f.Task().EndTime - f.Task().SubmitTime
			res.Latencies.Add(lat)
			ordered = append(ordered, lat)
		}
		res.Makespan = p.Now() - start
		res.ServiceCapacity = metrics.Throughput(cfg.Requests, res.Makespan)
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
