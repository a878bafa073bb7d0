package htex

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/gpuctl"
	"repro/internal/obs"
	"repro/internal/simgpu"
)

// A crashed worker slot comes back after the restart backoff with
// fresh state, and subsequent work runs on it.
func TestWorkerAutoRestart(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 1, Provider: r.local()})
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
		p.Sleep(1400 * time.Millisecond) // past the 500 ms restart backoff
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
		p.Sleep(2 * time.Second) // past the 500 ms restart backoff
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

// A worker killed while its first task is still bringing up the GPU
// context leaves nothing behind: the orphaned app must not keep the
// context it was opening (or load into it), so the respawned worker,
// which reuses the slot's name, loads without colliding.
func TestKillDuringContextBringUp(t *testing.T) {
	r := newRig(t, 1)
	ex, err := New(r.env, Config{
		Label:                 "gpu",
		MaxWorkers:            1,
		AvailableAccelerators: []string{"0"},
		Provider:              r.local(),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(faas.App{Name: "load", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		ctx, err := inv.GPU()
		if err != nil {
			return nil, err
		}
		_, err = ctx.Alloc("weights", simgpu.GB)
		return nil, err
	}})
	d.Start()
	var first, second error
	r.env.Spawn("main", func(p *devent.Proc) {
		f := d.Submit("load")
		p.Sleep(100 * time.Millisecond) // inside the 800 ms context init
		if !ex.KillWorker(f.Task().Worker) {
			t.Error("kill failed")
			return
		}
		_, first = f.Result(p)
		p.Sleep(2 * time.Second) // past the bring-up and the 500 ms restart backoff
		_, second = d.Submit("load").Result(p)
		ex.ShutdownAndWait(p)
	})
	r.run(t)
	if !errors.Is(first, ErrWorkerLost) {
		t.Fatalf("killed task err = %v, want ErrWorkerLost", first)
	}
	if second != nil {
		t.Fatalf("respawned worker's load: %v", second)
	}
	if got := r.devs[0].ContextNames(); len(got) != 0 {
		t.Errorf("contexts after shutdown = %v", got)
	}
	if got := r.devs[0].Mem().Segments(); len(got) != 0 {
		t.Errorf("segments after shutdown = %v", got)
	}
}

// crashIdle kills name's idle worker n times, each time waiting for
// the slot's restart, and returns the restart delays.
func crashIdle(t *testing.T, p *devent.Proc, ex *HTEX, name string, n int) []time.Duration {
	t.Helper()
	var delays []time.Duration
	for crash := 1; crash <= n; crash++ {
		if !ex.KillWorker(name) {
			t.Errorf("kill %d failed", crash)
			return delays
		}
		killedAt := p.Now()
		p.Sleep(100 * time.Millisecond) // let the crash process
		for ex.Workers() == 0 {
			p.Sleep(100 * time.Millisecond)
		}
		delays = append(delays, p.Now()-killedAt)
		p.Sleep(100 * time.Millisecond) // let the new worker proc boot
	}
	return delays
}

// Restart delays double per crash of the same slot, from 500 ms; at
// its fifth crash the slot is blacklisted and never restarted, and
// with no worker left new submissions fail with ErrNoWorkers.
func TestRestartBackoffAndBlacklist(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 1, Provider: r.local()})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(sleepApp("cpu", time.Second))
	d.Start()
	var restartDelays []time.Duration
	var late error
	r.env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Second)
		name := ex.WorkerNames()[0]
		restartDelays = crashIdle(t, p, ex, name, blacklistAfter-1)
		if !ex.KillWorker(name) {
			t.Error("blacklisting kill failed")
			return
		}
		p.Sleep(10 * time.Second)
		if ex.Workers() != 0 {
			t.Errorf("blacklisted slot restarted: workers = %d", ex.Workers())
		}
		_, late = d.Submit("sleep").Result(p)
	})
	r.run(t)
	// Crashes 1–4 → 0.5s, 1s, 2s, 4s. The poll loop rounds up to the
	// next 100ms tick.
	want := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second}
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
	if !errors.Is(late, ErrNoWorkers) {
		t.Fatalf("submit after blacklisting err = %v, want ErrNoWorkers", late)
	}
}

// When every worker is dead and none is coming back — the last crash
// blacklisted the only slot — queued submissions fail with
// ErrNoWorkers instead of stranding, and new submissions fail fast.
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
		p.Sleep(time.Second)
		// One crash short of the blacklist: the next kill is the last.
		crashIdle(t, p, ex, ex.WorkerNames()[0], blacklistAfter-1)
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

// Config.Validate accepts a config with no recovery settings: worker
// restart and blacklisting are the executor's fixed policy.
func TestValidateRecoveryKnobs(t *testing.T) {
	base := Config{Label: "x", MaxWorkers: 1, Provider: stubProvider{}}
	if err := base.Validate(); err != nil {
		t.Errorf("base config rejected: %v", err)
	}
}

// stubProvider satisfies provider.Provider for Validate-only tests.
type stubProvider struct{}

func (stubProvider) Name() string                       { return "stub" }
func (stubProvider) Provision(n int) *devent.Event      { return nil }
func (stubProvider) Release(nodes []*gpuctl.Node) error { return nil }
