package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/devent"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/simgpu"
)

// FleetConfig drives the fleet-scale placement scenario: a
// heterogeneous GPU inventory served by the fragmentation-aware packer
// under seeded open-loop churn — tenants of 50+ apps arrive as a
// Poisson process, live an exponential lifetime, and depart, while a
// sampler tracks fragmentation and a periodic rebalance compares the
// incremental state against a from-scratch solve. Everything runs on
// one virtual clock, so every reported quantity is deterministic in
// (config, seed).
type FleetConfig struct {
	// GPUs80 and GPUs40 size the inventory (A100-80GB and A100-40GB
	// parts, interleaved; defaults 64+64 = 128 GPUs).
	GPUs80, GPUs40 int
	// Apps is the number of distinct applications; each gets a fixed
	// right-sized demand drawn from the scenario's demand classes
	// (default 56).
	Apps int
	// Duration is the arrival horizon on the virtual clock (default
	// 10 min); tenants alive at the horizon drain naturally.
	Duration time.Duration
	// ArrivalRate is the tenant arrival rate in arrivals/second
	// (default 2.0 — with the default 3 min lifetime, ~360 concurrent
	// tenants at steady state).
	ArrivalRate float64
	// MeanLifetime is the mean of the exponential tenant lifetime
	// (default 3 min).
	MeanLifetime time.Duration
	// RebalanceEvery is the period of the drift check + rebalance
	// (default 2 min; 0 disables).
	RebalanceEvery time.Duration
	// SampleEvery is the fragmentation sampling period (default 5 s).
	SampleEvery time.Duration
	// Seed drives every random draw (default 1).
	Seed int64
	// TSDB, when set, attaches a virtual-time series store over the
	// scenario's registry (fleet gauges, counters) exactly as
	// Options.TSDB does for a platform.
	TSDB *tsdb.Config
	// OnCollector, when set, is called with the scenario's collector
	// before any span exists — streaming sinks attach here.
	OnCollector func(*obs.Collector)
	// Attach, when set, is called with the cell's collector and store
	// (see AttachFunc).
	Attach AttachFunc
}

// WithDefaults fills in unset fields with the scenario defaults.
func (c FleetConfig) WithDefaults() FleetConfig {
	if c.GPUs80 <= 0 && c.GPUs40 <= 0 {
		c.GPUs80, c.GPUs40 = 64, 64
	}
	if c.Apps <= 0 {
		c.Apps = 56
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Minute
	}
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 2.0
	}
	if c.MeanLifetime <= 0 {
		c.MeanLifetime = 3 * time.Minute
	}
	if c.RebalanceEvery == 0 {
		c.RebalanceEvery = 2 * time.Minute
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// fleetClasses orders the demand classes for per-class reporting.
var fleetClasses = []string{"small", "medium", "large", "oversize"}

// fleetApp is one application: a fixed demand all its tenants share.
type fleetApp struct {
	name  string
	class string
	sms   int
	mem   int64
}

// drawApps fixes each app's right-sized demand from the seeded
// generator: mostly MIG-coverable tenants, with a tail of oversize
// demands only whole-GPU MPS can serve.
func drawApps(rng *rand.Rand, n int) []fleetApp {
	apps := make([]fleetApp, n)
	for i := range apps {
		a := fleetApp{name: fmt.Sprintf("app%02d", i)}
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			a.class = "small"
			a.sms = 1 + rng.Intn(28)
			a.mem = int64(1+rng.Intn(10)) * simgpu.GB
		case 4, 5, 6:
			a.class = "medium"
			a.sms = 20 + rng.Intn(36)
			a.mem = int64(5+rng.Intn(30)) * simgpu.GB
		case 7, 8:
			a.class = "large"
			a.sms = 50 + rng.Intn(48)
			a.mem = int64(10+rng.Intn(60)) * simgpu.GB
		default:
			a.class = "oversize"
			a.sms = 99 + rng.Intn(10)
			a.mem = int64(1+rng.Intn(40)) * simgpu.GB
		}
		apps[i] = a
	}
	return apps
}

// FleetClassStat is one demand class's admission outcome.
type FleetClassStat struct {
	Class    string
	Arrivals int
	Placed   int
}

// FleetFragPoint is one fragmentation sample on the virtual clock.
type FleetFragPoint struct {
	T       time.Duration
	Frag    float64
	Tenants int
	MIG     int
	MPS     int
	Empty   int
}

// FleetResult aggregates a RunFleet run. Every field except Obs/TSDB
// handles is virtual and deterministic in (config, seed).
type FleetResult struct {
	GPUs, Apps int
	// Admission outcomes over the arrival horizon.
	Arrivals, Placed, Rejected int
	// Attainment is the SLO-attainment proxy: the fraction of arrivals
	// granted a demand-meeting segment, Placed/Arrivals.
	Attainment float64
	Classes    []FleetClassStat
	// Churn and rebalance activity.
	Evicted           int
	Rebalances        int
	RebalancesApplied int
	Moved             int
	// MaxGap is the largest incremental-vs-scratch fragmentation gap
	// any drift check observed (0 when rebalancing is disabled).
	MaxGap float64
	// ScratchInfeasible counts drift checks whose greedy scratch replay
	// could not place every survivor (the incremental state stood).
	ScratchInfeasible int
	PeakTenants       int
	FinalTenants      int
	// FragSeries samples fleet fragmentation over the arrival horizon.
	FragSeries []FleetFragPoint
	// FinalFrag is the fleet fragmentation after the last tenant
	// drained (0 for a clean drain — any residue is stranded state).
	FinalFrag float64
	// Makespan is the virtual time at drain: the horizon plus the tail
	// of lifetimes still running at it.
	Makespan time.Duration
	// Events is the Env's dispatched-event count.
	Events int64

	Obs  *obs.Collector
	TSDB *tsdb.DB
}

// RunFleet runs the fleet-scale placement scenario.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	cfg = cfg.WithDefaults()
	s := newCell("fleet", cfg.OnCollector, cfg.TSDB)
	defer s.Env.Close()
	env := s.Env
	specs := interleaveSpecs(cfg.GPUs80, cfg.GPUs40)
	cl, err := fleet.New(fleet.Config{Inventory: fleet.NewInventory(specs...), Obs: s.Obs})
	if err != nil {
		return nil, err
	}
	s.addAlerts(FleetAlertRules())
	s.attach(cfg.Attach)

	rng := rand.New(rand.NewSource(cfg.Seed))
	apps := drawApps(rng, cfg.Apps)
	res := &FleetResult{GPUs: len(specs), Apps: cfg.Apps, Obs: s.Obs, TSDB: s.TSDB}
	classIdx := make(map[string]int, len(fleetClasses))
	for i, c := range fleetClasses {
		classIdx[c] = i
		res.Classes = append(res.Classes, FleetClassStat{Class: c})
	}

	// Sampler: fragmentation-over-time at SampleEvery, horizon-bounded.
	env.ScheduleStep(0, &sleepLoop{env: env, gap: func() time.Duration { return cfg.SampleEvery }, fn: func() bool {
		if env.Now() > cfg.Duration {
			return false
		}
		frag := cl.Fragmentation()
		var nMIG, nMPS, nEmpty int
		for _, g := range frag.PerGPU {
			switch g.Mode {
			case "mig":
				nMIG++
			case "mps":
				nMPS++
			default:
				nEmpty++
			}
		}
		res.FragSeries = append(res.FragSeries, FleetFragPoint{
			T: env.Now(), Frag: frag.Fleet, Tenants: cl.Tenants(),
			MIG: nMIG, MPS: nMPS, Empty: nEmpty,
		})
		return true
	}})

	// Rebalancer: periodic drift check, adopting the scratch solve when
	// it is strictly better.
	if cfg.RebalanceEvery > 0 {
		env.ScheduleStep(0, &sleepLoop{env: env, gap: func() time.Duration { return cfg.RebalanceEvery }, fn: func() bool {
			if env.Now() > cfg.Duration {
				return false
			}
			rep := cl.Rebalance()
			res.Rebalances++
			if rep.ScratchInfeasible {
				res.ScratchInfeasible++
				return true
			}
			if rep.Gap > res.MaxGap {
				res.MaxGap = rep.Gap
			}
			if rep.Applied {
				res.RebalancesApplied++
				res.Moved += rep.Moved
			}
			return true
		}})
	}

	// Churn driver, the run's main: Poisson arrivals over the horizon;
	// each placed tenant departs after an exponential lifetime (its own
	// departure step, so departures outlive the arrival loop and drain
	// naturally after the store stops with the horizon).
	seq := 0
	shared := &departures{env: env, cl: cl, res: res}
	err = s.runStep(&sleepLoop{env: env, gap: func() time.Duration {
		return time.Duration(rng.ExpFloat64() / cfg.ArrivalRate * float64(time.Second))
	}, fn: func() bool {
		if env.Now() > cfg.Duration {
			s.exit(nil)
			return false
		}
		app := apps[rng.Intn(len(apps))]
		life := time.Duration(rng.ExpFloat64() * float64(cfg.MeanLifetime))
		name := fmt.Sprintf("%s/t%d", app.name, seq)
		seq++
		res.Arrivals++
		res.Classes[classIdx[app.class]].Arrivals++
		_, perr := cl.Place(fleet.Demand{Tenant: name, SMs: app.sms, MemBytes: app.mem})
		if perr != nil {
			res.Rejected++
			return true
		}
		res.Placed++
		res.Classes[classIdx[app.class]].Placed++
		if n := cl.Tenants(); n > res.PeakTenants {
			res.PeakTenants = n
		}
		env.ScheduleStep(0, &departure{departures: shared, name: name, life: life})
		return true
	}})
	if err != nil {
		return nil, err
	}
	if err := cl.Validate(); err != nil {
		return nil, fmt.Errorf("fleet scenario: post-drain invariants: %w", err)
	}
	res.FinalTenants = cl.Tenants()
	res.FinalFrag = cl.Fragmentation().Fleet
	if res.Arrivals > 0 {
		res.Attainment = float64(res.Placed) / float64(res.Arrivals)
	}
	res.Makespan = env.Now()
	res.Events = env.EventsDispatched()
	return res, nil
}

// interleaveSpecs alternates 80 GB and 40 GB parts so placement
// tie-breaks see a mixed prefix rather than all-80s-then-all-40s.
func interleaveSpecs(n80, n40 int) []simgpu.DeviceSpec {
	specs := make([]simgpu.DeviceSpec, 0, n80+n40)
	for i := 0; len(specs) < n80+n40; i++ {
		if i < n80 {
			specs = append(specs, simgpu.A100SXM480GB())
		}
		if i < n40 {
			specs = append(specs, simgpu.A100SXM440GB())
		}
	}
	return specs
}

// sleepLoop is the Step form of a proc that loops on a sleep: queued
// where Spawn would queue the proc's start, it sleeps out gap(), runs
// fn, and again, until fn reports false.
type sleepLoop struct {
	env   *devent.Env
	gap   func() time.Duration
	fn    func() bool
	slept bool
}

func (l *sleepLoop) Step() {
	if l.slept && !l.fn() {
		return
	}
	l.slept = true
	l.env.ScheduleStep(l.gap(), l)
}

// departures is what a run's departure steps share.
type departures struct {
	env *devent.Env
	cl  *fleet.Cluster
	res *FleetResult
}

// departure is a placed tenant's exit as a Step: queued where its proc
// would start, it sleeps out the tenant's lifetime, then evicts it.
type departure struct {
	*departures
	name  string
	life  time.Duration
	slept bool
}

func (d *departure) Step() {
	if !d.slept {
		d.slept = true
		d.env.ScheduleStep(d.life, d)
		return
	}
	if err := d.cl.Evict(d.name); err != nil {
		d.env.Fail(fmt.Errorf("fleet scenario: departing %q: %w", d.name, err))
		return
	}
	d.res.Evicted++
}
