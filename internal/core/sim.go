package core

import (
	"errors"
	"fmt"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/tsdb"
	"repro/internal/simgpu"
)

// sim is the one simulation shell every core driver builds, runs and
// drains its simulation through. A probe — one of the paper's small
// device measurements — owns a fresh Env with its devices and spawns
// procs whose body returns an error. A cell — a Platform, a fleet cell,
// an autoscale cell — also owns the collector, the optional series
// store with its alert pack, the SLO monitor, and the Attach hook (a
// fleet or autoscale cell also an OnCollector hook); a cell with a DFK
// also checks its task ledger. Every run ends in run's one drain
// sequence. A Platform embeds its shell, so these exported fields are
// the Platform's too.
type sim struct {
	Env     *devent.Env
	Devices []*simgpu.Device
	// Obs is the cell's collector; on a Platform it holds every span
	// and metric from the DFK, executors, and (with Options.Observe)
	// devices and scheduler.
	Obs *obs.Collector
	// TSDB is the attached time-series store (nil unless one was
	// requested); run starts its scrape daemon and stops it when the
	// main proc returns.
	TSDB *tsdb.DB
	// SLOMon is the attached SLO burn-rate monitor (nil unless SLO
	// rules are set); run closes it when the simulation drains.
	SLOMon *analyze.Monitor
	// ledger is the run's DFK task ledger (nil when the run has no
	// DFK); run checks it once the simulation drains.
	ledger *faas.Ledger
	// stop, when set, stops with main besides the store (a Platform's
	// fault injector); mainErr is what main exited with.
	stop    func()
	mainErr error
}

// newSim builds a fresh Env with one device per spec, named gpu0,
// gpu1, ..., each under policy (PolicyTimeShare is the device default).
func newSim(policy simgpu.Policy, specs ...simgpu.DeviceSpec) (*sim, error) {
	s := &sim{Env: devent.NewEnv()}
	for i, spec := range specs {
		d, err := simgpu.NewDevice(s.Env, fmt.Sprintf("gpu%d", i), spec)
		if err == nil {
			err = d.SetPolicy(policy)
		}
		if err != nil {
			return nil, err
		}
		s.Devices = append(s.Devices, d)
	}
	return s, nil
}

// newCell builds a device-less shell with its collector (see observe).
func newCell(scope string, onCollector func(*obs.Collector), store *tsdb.Config) *sim {
	s := &sim{Env: devent.NewEnv()}
	s.observe(scope, onCollector, store)
	return s
}

// observe gives the shell its collector, named scope, and calls the
// OnCollector hook, if any, before any span exists; with store set it
// also attaches a series store over the collector's registry.
func (s *sim) observe(scope string, onCollector func(*obs.Collector), store *tsdb.Config) {
	s.Obs = obs.New(s.Env)
	s.Obs.SetScope(scope)
	if onCollector != nil {
		onCollector(s.Obs)
	}
	if store != nil {
		s.TSDB = tsdb.New(s.Obs.Metrics(), s.Env, *store)
	}
}

// addAlerts registers a rule pack on the store (a no-op without one).
func (s *sim) addAlerts(rules []tsdb.AlertRule) {
	for _, r := range rules {
		s.TSDB.AddAlert(r)
	}
}

// attach calls the run's Attach hook, once its own sinks and scope are
// final.
func (s *sim) attach(fn AttachFunc) {
	if fn != nil {
		fn(s.Obs, s.TSDB)
	}
}

// load opens an LLM engine for cfg on ctxs, streaming the weights at
// the host bandwidth of the shell's first device.
func (s *sim) load(p *devent.Proc, cfg llm.Config, ctxs ...*simgpu.Context) (*llm.Engine, error) {
	e := llm.New(cfg)
	return e, e.Load(p, ctxs, s.Devices[0].Spec().HostLoadBW)
}

// spawn starts body as a proc; an error it returns fails the run.
func (s *sim) spawn(name string, body func(*devent.Proc) error) *devent.Proc {
	return s.Env.Spawn(name, func(p *devent.Proc) {
		if err := body(p); err != nil {
			s.Env.Fail(err)
		}
	})
}

// run is the one drain sequence: start the store, spawn main, run to
// drain, flush the SLO windows still burning, and take a final scrape
// of the run's end state. Main ends in exit when it returns. A nil main
// runs only the procs already spawned. Main's error is returned once
// the run has drained; a run that otherwise succeeded, or drained into
// a deadlock, fails if its task ledger does not balance. A task stuck
// for good leaves its launch step awaiting an event that never fires,
// so a lost task deadlocks the run, and the ledger names the loss.
func (s *sim) run(main func(*devent.Proc) error) error {
	s.TSDB.Start(s.Env)
	if main != nil {
		s.Env.Spawn("main", func(p *devent.Proc) { s.exit(main(p)) })
	}
	return s.wait()
}

// runStep is run with main as a Step, the form of a driver that only
// sleeps and awaits events: it is queued where Spawn would queue a
// main proc's start, and it calls exit when it ends.
func (s *sim) runStep(main devent.Step) error {
	s.TSDB.Start(s.Env)
	s.Env.ScheduleStep(0, main)
	return s.wait()
}

// stepFunc is a driver's loop body as a devent.Step, for a main that
// keeps its state in the locals it captures.
type stepFunc func()

func (f stepFunc) Step() { f() }

// exit ends the run's main with err, which run returns once the run
// has drained, and stops what runs only as long as main: stop, and the
// store's scrape daemon, whose pending timer would keep the queue from
// ever draining.
func (s *sim) exit(err error) {
	s.mainErr = err
	if s.stop != nil {
		s.stop()
	}
	s.TSDB.Stop()
}

// wait is run's second half: run to drain, then close out the run.
func (s *sim) wait() error {
	err := s.Env.Run()
	if err == nil {
		s.SLOMon.Close()
		s.TSDB.Scrape()
		err = s.mainErr
	}
	if err == nil || errors.Is(err, devent.ErrDeadlock) {
		if lerr := s.ledger.Err(); lerr != nil {
			return errors.Join(lerr, err)
		}
	}
	return err
}

// drain runs a probe to drain and closes its Env.
func (s *sim) drain() error {
	defer s.Env.Close()
	return s.run(nil)
}

// probe runs body as the one proc of a fresh shell holding n devices
// of spec under policy, then drains and closes it.
func probe(n int, spec simgpu.DeviceSpec, policy simgpu.Policy, body func(s *sim, p *devent.Proc) error) error {
	specs := make([]simgpu.DeviceSpec, n)
	for i := range specs {
		specs[i] = spec
	}
	s, err := newSim(policy, specs...)
	if err != nil {
		return err
	}
	s.spawn("probe", func(p *devent.Proc) error { return body(s, p) })
	return s.drain()
}
