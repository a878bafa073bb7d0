package htex

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/obs"
)

// An idle worker waits on the queue with one receive: after 1000 tasks
// a kill withdraws exactly one, and the worker exits at the kill
// instant. A kill mid-task still fails that task with ErrWorkerLost
// and the DFK retries it.
func TestWorkerLoopRegistrationsConstant(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 1, Provider: r.local()})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{Retries: 1}, ex)
	d.Register(sleepApp("cpu", time.Millisecond))
	d.Register(faas.App{Name: "long", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(10 * time.Second)
		return inv.Task().Tries, nil
	}})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	r.env.Spawn("main", func(p *devent.Proc) {
		if _, err := d.Submit("sleep").Result(p); err != nil {
			t.Error(err)
			return
		}
		w := ex.workers[0]
		for i := 1; i < 1000; i++ {
			if _, err := d.Submit("sleep").Result(p); err != nil {
				t.Error(err)
				return
			}
		}
		// KillWorker's marks; the test makes the kill's withdrawal.
		kill := p.Now()
		w.killed, w.stopped = true, true
		if !ex.queue.Withdraw((*workerLoop)(w)) {
			t.Error("idle worker not registered on the queue after 1000 tasks")
		}
		if ex.queue.Withdraw((*workerLoop)(w)) {
			t.Error("idle worker registered on the queue twice")
		}
		p.Wait(&w.exited)
		if p.Now() != kill {
			t.Errorf("killed idle worker exited at %v, want the kill instant %v", p.Now(), kill)
		}

		long := d.Submit("long")
		p.Sleep(time.Second) // mid-task
		if !ex.KillWorker(w.name) {
			t.Error("kill failed")
			return
		}
		v, err := long.Result(p)
		if err != nil || v != 2 {
			t.Errorf("killed task: v=%v err=%v, want a successful second try", v, err)
		}
	})
	r.run(t)
	m := d.Collector().Metrics()
	if v := m.Counter("faas_task_retries_total", obs.L("app", "long")).Value(); v != 1 {
		t.Fatalf("retries = %v, want 1", v)
	}
	if v := m.Counter("htex_workers_killed_total", obs.L("executor", "cpu")).Value(); v != 2 {
		t.Fatalf("workers killed = %v, want 2", v)
	}
}

// Without retries, the task a kill interrupts fails with ErrWorkerLost
// at the kill instant, not when its orphaned app finishes.
func TestKillMidTaskFailsWithWorkerLost(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 1, Provider: r.local()})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(sleepApp("cpu", 10*time.Second))
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	r.env.Spawn("main", func(p *devent.Proc) {
		f := d.Submit("sleep")
		p.Sleep(time.Second)
		ex.KillWorker(ex.WorkerNames()[0])
		if _, err := f.Result(p); !errors.Is(err, ErrWorkerLost) {
			t.Errorf("err = %v, want ErrWorkerLost", err)
		}
		if p.Now() != time.Second {
			t.Errorf("task failed at %v, want the kill instant 1s", p.Now())
		}
	})
	r.run(t)
}

// A worker's proc ends when the worker leaves the pool, whichever way
// it leaves: scale-in, a kill while idle, a kill mid-app (once the
// orphaned app returns), and shutdown. The collector, installed as the
// scheduler observer, counts the exits. Respawns add procs, so the
// test counts exits (spawned minus live), not live procs.
func TestWorkerProcsExit(t *testing.T) {
	env, slurm := slurmRig(t, 2, 0)
	ex, err := New(env, Config{Label: "cpu", MaxWorkers: 2, Provider: slurm, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := obs.New(env)
	env.SetObserver(c)
	d := faas.NewDFK(env, faas.Config{Collector: c}, ex)
	d.Register(sleepApp("cpu", 10*time.Second))
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	live := func() int { return int(m.Gauge("devent_procs_live").Value()) }
	exited := func() int { return int(m.Counter("devent_procs_spawned_total").Value()) - live() }
	env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Millisecond)
		if got := live(); got != 5 {
			t.Errorf("%d procs live after boot, want main and 4 workers", got)
		}
		check := func(what string, want int) {
			t.Helper()
			if got := exited(); got != want {
				t.Errorf("%s: %d procs exited, want %d", what, got, want)
			}
		}
		e := exited()
		if n, err := ex.ScaleIn(p, 1); n != 1 || err != nil {
			t.Errorf("ScaleIn = %d, %v", n, err)
		}
		e += 2
		check("scale-in of a 2-worker block", e)

		ex.KillWorker(ex.WorkerNames()[0])
		p.Sleep(time.Millisecond)
		e++
		check("kill of an idle worker", e)

		f := d.Submit("sleep")
		p.Sleep(time.Second)
		ex.KillWorker(f.Task().Worker)
		if _, err := f.Result(p); !errors.Is(err, ErrWorkerLost) {
			t.Errorf("killed task: %v, want ErrWorkerLost", err)
		}
		check("kill mid-app, app still running", e)
		p.Sleep(9 * time.Second)
		e++
		check("kill mid-app, orphaned app returned", e)

		n := ex.Workers()
		ex.ShutdownAndWait(p)
		e += n
		check("shutdown", e)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := live(); got != 0 {
		t.Fatalf("%d procs still live at drain after shutdown", got)
	}
}

// At drain, a pool that was never shut down leaves only its idle
// workers' procs parked, one per live worker.
func TestIdleWorkerProcsParkAtDrain(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 3, Provider: r.local()})
	if err != nil {
		t.Fatal(err)
	}
	c := obs.New(r.env)
	r.env.SetObserver(c)
	d := faas.NewDFK(r.env, faas.Config{Collector: c}, ex)
	d.Register(sleepApp("cpu", time.Second))
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	r.env.Spawn("main", func(p *devent.Proc) {
		for i := 0; i < 10; i++ {
			d.Submit("sleep")
		}
	})
	r.run(t)
	if got, want := int(c.Metrics().Gauge("devent_procs_live").Value()), ex.Workers(); got != want || want != 3 {
		t.Fatalf("%d procs live at drain, want one per live worker (%d)", got, want)
	}
}
