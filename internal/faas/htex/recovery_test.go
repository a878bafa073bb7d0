package htex

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/gpuctl"
	"repro/internal/obs"
)

// With RestartBackoff set, a crashed worker slot comes back after the
// backoff with fresh state, and subsequent work runs on it.
func TestWorkerAutoRestart(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{
		Label:          "cpu",
		MaxWorkers:     1,
		Provider:       r.local(),
		RestartBackoff: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(faas.App{Name: "fn", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(time.Second)
		return "ok", nil
	}})
	d.Start()
	r.env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Second) // let the worker start
		name := ex.WorkerNames()[0]
		if !ex.KillWorker(name) {
			t.Error("kill failed")
			return
		}
		p.Sleep(100 * time.Millisecond) // let the crash process
		if ex.Workers() != 0 {
			t.Errorf("workers after kill = %d", ex.Workers())
		}
		p.Sleep(1400 * time.Millisecond) // past the 1s restart backoff
		if ex.Workers() != 1 {
			t.Errorf("workers after backoff = %d", ex.Workers())
			return
		}
		if got := ex.WorkerNames()[0]; got != name {
			t.Errorf("restarted worker = %q, want slot %q", got, name)
		}
		if v, err := d.Submit("fn").Result(p); err != nil || v != "ok" {
			t.Errorf("v=%v err=%v", v, err)
		}
	})
	r.run(t)
	c := d.Collector().Metrics().Counter("htex_worker_restarts_total", obs.L("executor", "cpu"))
	if c.Value() != 1 {
		t.Fatalf("worker_restarts_total = %v", c.Value())
	}
}

// A restarted worker reports to the executor's collector like the one
// it replaces: its GPU context bring-up records a ctxinit span too.
func TestRestartedWorkerRecordsContextInit(t *testing.T) {
	r := newRig(t, 1)
	ex, err := New(r.env, Config{
		Label:                 "gpu",
		MaxWorkers:            1,
		AvailableAccelerators: []string{"0"},
		Provider:              r.local(),
		RestartBackoff:        time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(faas.App{Name: "gpu", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		if _, err := inv.GPU(); err != nil {
			return nil, err
		}
		inv.Compute(time.Millisecond)
		return nil, nil
	}})
	d.Start()
	var name string
	r.env.Spawn("main", func(p *devent.Proc) {
		if _, err := d.Submit("gpu").Result(p); err != nil {
			t.Errorf("before kill: %v", err)
			return
		}
		name = ex.WorkerNames()[0]
		if !ex.KillWorker(name) {
			t.Error("kill failed")
			return
		}
		p.Sleep(2 * time.Second) // past the 1s restart backoff
		if _, err := d.Submit("gpu").Result(p); err != nil {
			t.Errorf("after restart: %v", err)
		}
	})
	r.run(t)
	inits := 0
	for _, s := range d.Collector().Spans() {
		if s.Cat == "htex" && s.Name == "ctxinit" {
			if s.Track != name {
				t.Errorf("ctxinit on track %q, want %q", s.Track, name)
			}
			inits++
		}
	}
	if inits != 2 {
		t.Fatalf("ctxinit spans = %d, want one per worker incarnation (2)", inits)
	}
}

// Restart delays double per crash of the same slot, capped at
// RestartBackoffMax; after BlacklistAfter crashes the slot is
// blacklisted and never restarted.
func TestRestartBackoffAndBlacklist(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{
		Label:             "cpu",
		MaxWorkers:        1,
		Provider:          r.local(),
		RestartBackoff:    time.Second,
		RestartBackoffMax: 2 * time.Second,
		BlacklistAfter:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Start()
	var restartDelays []time.Duration
	r.env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Second)
		name := ex.WorkerNames()[0]
		for crash := 1; crash <= 3; crash++ {
			if !ex.KillWorker(name) {
				t.Errorf("kill %d failed", crash)
				return
			}
			killedAt := p.Now()
			if crash == 3 {
				break // blacklisted: no restart to wait for
			}
			p.Sleep(100 * time.Millisecond) // let the crash process
			for ex.Workers() == 0 {
				p.Sleep(100 * time.Millisecond)
			}
			restartDelays = append(restartDelays, p.Now()-killedAt)
			p.Sleep(100 * time.Millisecond) // let the new worker proc boot
		}
		p.Sleep(10 * time.Second)
		if ex.Workers() != 0 {
			t.Errorf("blacklisted slot restarted: workers = %d", ex.Workers())
		}
	})
	r.run(t)
	// Crash 1 → 1s backoff; crash 2 → 2s (doubled, at the cap). The
	// poll loop rounds up to the next 100ms tick.
	want := []time.Duration{time.Second, 2 * time.Second}
	if len(restartDelays) != len(want) {
		t.Fatalf("restart delays = %v", restartDelays)
	}
	for i := range want {
		if restartDelays[i] < want[i] || restartDelays[i] > want[i]+100*time.Millisecond {
			t.Fatalf("restart %d after %v, want ~%v", i+1, restartDelays[i], want[i])
		}
	}
	g := d.Collector().Metrics().Gauge("htex_blacklist_size", obs.L("executor", "cpu"))
	if g.Value() != 1 {
		t.Fatalf("blacklist_size = %v", g.Value())
	}
}

// When every worker is dead and none is coming back, queued
// submissions fail with ErrNoWorkers instead of stranding, and new
// submissions fail fast.
func TestQueueFailsWhenAllWorkersDead(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 1, Provider: r.local()})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(faas.App{Name: "slow", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(10 * time.Second)
		return nil, nil
	}})
	d.Start()
	var inflight, queued, late error
	r.env.Spawn("main", func(p *devent.Proc) {
		running := d.Submit("slow")
		waiting := d.Submit("slow") // queued behind the only worker
		p.Sleep(time.Second)
		if !ex.KillWorker(running.Task().Worker) {
			t.Error("kill failed")
			return
		}
		_, inflight = running.Result(p)
		_, queued = waiting.Result(p)
		_, late = d.Submit("slow").Result(p)
	})
	r.run(t)
	if !errors.Is(inflight, ErrWorkerLost) {
		t.Fatalf("in-flight err = %v, want ErrWorkerLost", inflight)
	}
	if !errors.Is(queued, ErrNoWorkers) {
		t.Fatalf("queued err = %v, want ErrNoWorkers", queued)
	}
	if !errors.Is(late, ErrNoWorkers) {
		t.Fatalf("late submit err = %v, want ErrNoWorkers", late)
	}
}

// Drain lets queued and running work finish while rejecting new
// submissions with ErrShutdown.
func TestDrainRejectsNewWork(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 1, Provider: r.local()})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(sleepApp("cpu", time.Second))
	d.Start()
	var inflight, rejected error
	r.env.Spawn("main", func(p *devent.Proc) {
		fut := d.Submit("sleep")
		p.Sleep(100 * time.Millisecond) // task is running on the worker
		ex.Drain()
		_, rejected = d.Submit("sleep").Result(p)
		_, inflight = fut.Result(p)
	})
	r.run(t)
	if !errors.Is(rejected, faas.ErrShutdown) {
		t.Fatalf("rejected err = %v, want ErrShutdown", rejected)
	}
	if inflight != nil {
		t.Fatalf("in-flight task failed during drain: %v", inflight)
	}
}

// Config.Validate rejects the new recovery knobs' invalid values.
func TestValidateRecoveryKnobs(t *testing.T) {
	base := Config{Label: "x", MaxWorkers: 1, Provider: stubProvider{}}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"negative RestartBackoff", func(c *Config) { c.RestartBackoff = -1 }},
		{"negative RestartBackoffMax", func(c *Config) { c.RestartBackoffMax = -1 }},
		{"max below base", func(c *Config) { c.RestartBackoff = 2; c.RestartBackoffMax = 1 }},
		{"negative BlacklistAfter", func(c *Config) { c.BlacklistAfter = -1 }},
	} {
		cfg := base
		tc.mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base config rejected: %v", err)
	}
}

// stubProvider satisfies provider.Provider for Validate-only tests.
type stubProvider struct{}

func (stubProvider) Name() string                       { return "stub" }
func (stubProvider) Provision(n int) *devent.Event      { return nil }
func (stubProvider) Release(nodes []*gpuctl.Node) error { return nil }
