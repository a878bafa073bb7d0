package htex

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/obs"
)

// listenerCounts snapshots the OnFire slots on a worker's lifecycle
// events and on the executor-wide shutdown event.
func listenerCounts(h *HTEX, w *worker) [3]int {
	return [3]int{w.kill.Listeners(), w.retire.Listeners(), h.shutdown.Listeners()}
}

// A worker's loop registers on its lifecycle events once, not once per
// task: after 1000 tasks the listener counts on kill, retire and
// shutdown are what they were after the first. A kill mid-task still
// fails that task with ErrWorkerLost and the DFK retries it.
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
		first := listenerCounts(ex, w)
		for i := 1; i < 1000; i++ {
			if _, err := d.Submit("sleep").Result(p); err != nil {
				t.Error(err)
				return
			}
		}
		if got := listenerCounts(ex, w); got != first || got[2] > 1 {
			t.Errorf("listeners (kill, retire, shutdown) after 1000 tasks = %v, after 1 = %v", got, first)
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
		if n := ex.shutdown.Listeners(); n != 1 {
			t.Errorf("shutdown listeners after kill and restart = %d, want 1", n)
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
