package htex

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/obs"
)

// An idle worker's wait on the queue registers on its stop event and
// detaches once it picks a task: after 1000 tasks the stop event holds
// what it held after the first, at most one listener. A kill mid-task
// still fails that task with ErrWorkerLost and the DFK retries it.
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
		first := w.stop.Listeners()
		for i := 1; i < 1000; i++ {
			if _, err := d.Submit("sleep").Result(p); err != nil {
				t.Error(err)
				return
			}
		}
		if got := w.stop.Listeners(); got != first || got > 1 {
			t.Errorf("stop listeners after 1000 tasks = %d, after 1 = %d", got, first)
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
		if n := w.stop.Listeners(); n != 0 {
			t.Errorf("killed worker's stop listeners = %d, want 0", n)
		}
		if n := ex.workers[0].stop.Listeners(); n != 1 {
			t.Errorf("restarted idle worker's stop listeners = %d, want 1", n)
		}
	})
	r.run(t)
	m := d.Collector().Metrics()
	if v := m.Counter("faas_task_retries_total", obs.L("app", "long")).Value(); v != 1 {
		t.Fatalf("retries = %v, want 1", v)
	}
	if v := m.Counter("htex_workers_killed_total", obs.L("executor", "cpu")).Value(); v != 1 {
		t.Fatalf("workers killed = %v, want 1", v)
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
