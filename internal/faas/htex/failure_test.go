package htex

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/obs"
)

// A worker crash mid-task fails the task with ErrWorkerLost; with
// Retries=1 the DFK re-dispatches it to the surviving worker and the
// future still succeeds.
func TestWorkerCrashRetriesOnSurvivor(t *testing.T) {
	r := newRig(t, 1)
	ex, err := New(r.env, Config{
		Label:                 "gpu",
		AvailableAccelerators: []string{"0", "0"},
		Provider:              r.local(),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{Retries: 1}, ex)
	var runs []string
	d.Register(faas.App{Name: "slow", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		if _, err := inv.GPU(); err != nil {
			return nil, err
		}
		runs = append(runs, inv.WorkerName())
		inv.Compute(10 * time.Second)
		return "done", nil
	}})
	d.Start()
	r.env.Spawn("main", func(p *devent.Proc) {
		fut := d.Submit("slow")
		p.Sleep(2 * time.Second) // task is running on some worker
		victim := fut.Task().Worker
		if victim == "" {
			t.Error("task not started")
			return
		}
		if !ex.KillWorker(victim) {
			t.Errorf("kill %q failed", victim)
			return
		}
		p.Sleep(100 * time.Millisecond) // inside the restart backoff
		if ex.Workers() != 1 {
			t.Errorf("workers after crash = %d", ex.Workers())
		}
		v, err := fut.Result(p)
		if err != nil || v != "done" {
			t.Errorf("v=%v err=%v", v, err)
			return
		}
		if fut.Task().Tries != 2 {
			t.Errorf("tries = %d", fut.Task().Tries)
		}
		if fut.Task().Worker == victim {
			t.Errorf("retry landed on the dead worker %q", victim)
		}
	})
	r.run(t)
	if len(runs) != 2 || runs[0] == runs[1] {
		t.Fatalf("runs = %v", runs)
	}
	if ex.Workers() != 2 {
		t.Fatalf("workers after restart = %d", ex.Workers())
	}
	// The dead worker's GPU context is gone; the survivor's remains,
	// and the restarted slot has not opened one yet.
	if got := r.devs[0].Contexts(); got != 1 {
		t.Fatalf("device contexts = %d", got)
	}
}

// Without retries the crash surfaces as ErrWorkerLost.
func TestWorkerCrashWithoutRetries(t *testing.T) {
	r := newRig(t, 0)
	ex, _ := New(r.env, Config{Label: "cpu", MaxWorkers: 1, Provider: r.local()})
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(faas.App{Name: "slow", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(10 * time.Second)
		return nil, nil
	}})
	d.Start()
	var got error
	r.env.Spawn("main", func(p *devent.Proc) {
		fut := d.Submit("slow")
		p.Sleep(time.Second)
		ex.KillWorker(fut.Task().Worker)
		_, got = fut.Result(p)
	})
	r.run(t)
	if !errors.Is(got, ErrWorkerLost) {
		t.Fatalf("got = %v", got)
	}
}

// Killing an idle worker shrinks the pool, until its slot restarts,
// without affecting tasks.
func TestKillIdleWorker(t *testing.T) {
	r := newRig(t, 0)
	ex, _ := New(r.env, Config{Label: "cpu", MaxWorkers: 2, Provider: r.local()})
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(faas.App{Name: "fn", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(time.Second)
		return "ok", nil
	}})
	d.Start()
	r.env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Second) // let workers start
		names := ex.WorkerNames()
		if len(names) != 2 {
			t.Errorf("names = %v", names)
			return
		}
		if !ex.KillWorker(names[0]) {
			t.Error("kill failed")
			return
		}
		p.Sleep(100 * time.Millisecond) // inside the restart backoff
		if ex.Workers() != 1 {
			t.Errorf("workers = %d", ex.Workers())
		}
		if v, err := d.Submit("fn").Result(p); err != nil || v != "ok" {
			t.Errorf("v=%v err=%v", v, err)
		}
	})
	r.run(t)
}

// Killing an unknown worker reports false; killing it again before
// its slot restarts reports false.
func TestKillWorkerBookkeeping(t *testing.T) {
	r := newRig(t, 0)
	ex, _ := New(r.env, Config{Label: "cpu", MaxWorkers: 1, Provider: r.local()})
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Start()
	r.env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Second)
		if ex.KillWorker("ghost") {
			t.Error("killed a ghost")
		}
		name := ex.WorkerNames()[0]
		if !ex.KillWorker(name) {
			t.Error("first kill failed")
		}
		p.Sleep(100 * time.Millisecond) // inside the restart backoff
		if ex.KillWorker(name) {
			t.Error("double kill succeeded")
		}
	})
	r.run(t)
}

// A killed worker's orphaned app finishes on the worker's proc while
// the task's retry runs elsewhere. The kill already failed its attempt
// and took the worker out of the pool, so the retry's result, its run
// span and the task's terminal status are what they would be without
// the orphan. The orphan's invocation is untouched by the retry, which
// runs on a fresh attempt record while the orphan holds the task's
// slot: its proc, worker, task and argument are those it started with.
func TestOrphanedAppStaysInItsLane(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 2, Provider: r.local()})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{Retries: 1}, ex)
	calls := 0
	d.Register(faas.App{Name: "slow", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		calls++
		n := calls
		if n == 1 {
			proc, worker, task, arg := inv.Proc(), inv.WorkerName(), inv.Task(), inv.Arg(0)
			inv.Compute(5 * time.Second) // orphaned at 1 s, returns at 5 s
			if inv.Proc() != proc || inv.WorkerName() != worker || inv.Task() != task || inv.Arg(0) != arg {
				t.Errorf("orphan's invocation moved from %p %s %p %v to %p %s %p %v",
					proc, worker, task, arg, inv.Proc(), inv.WorkerName(), inv.Task(), inv.Arg(0))
			}
		} else {
			inv.Compute(10 * time.Second) // the retry: 1 s to 11 s
		}
		if inv.Arg(0) != "input" {
			t.Errorf("call %d got argument %v", n, inv.Arg(0))
		}
		return n, nil
	}})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var fut *faas.Future
	var victim string
	r.env.Spawn("main", func(p *devent.Proc) {
		fut = d.Submit("slow", "input")
		p.Sleep(time.Second)
		victim = fut.Task().Worker
		if !ex.KillWorker(victim) {
			t.Error("kill failed")
			return
		}
		p.Sleep(5 * time.Second) // past the orphan's return
		if calls != 2 || fut.Done() {
			t.Errorf("at 6s: %d calls, future done %v; want the retry running", calls, fut.Done())
		}
		v, err := fut.Result(p)
		if err != nil || v != 2 || p.Now() != 11*time.Second {
			t.Errorf("result %v, %v at %v; want the retry's 2 at 11s", v, err, p.Now())
		}
	})
	r.run(t)
	task := fut.Task()
	if task.Status != faas.TaskDone || task.Tries != 2 || task.EndTime != 11*time.Second || task.Worker == victim {
		t.Fatalf("task %+v; want done on the survivor after 2 tries at 11s", task)
	}
	var runs []obs.Span
	for _, s := range d.Collector().Spans() {
		if id, _ := s.AttrInt("task"); id == int64(task.ID) && s.Cat == "htex" && s.Name == "run" {
			runs = append(runs, s)
		}
		if s.Cat == "dfk" && s.Name == "task" && (s.Attr("status") != "done" || s.Attr("tries") != "2" || s.End != 11*time.Second) {
			t.Errorf("task span %v ends %v", s.Attrs, s.End)
		}
	}
	if len(runs) != 2 {
		t.Fatalf("%d run spans, want 2", len(runs))
	}
	lost, retry := runs[0], runs[1]
	if lost.Track != victim || lost.Attr("status") != "lost" || lost.End != time.Second {
		t.Errorf("lost attempt's run span %s %v ends %v", lost.Track, lost.Attrs, lost.End)
	}
	if retry.Track == victim || retry.Attr("status") != "done" || retry.Start != time.Second || retry.End != 11*time.Second {
		t.Errorf("retry's run span %s %v [%v, %v]", retry.Track, retry.Attrs, retry.Start, retry.End)
	}
}

// A kill at the instant the app returns loses the attempt once. The
// kill is dispatched first, so the attempt fails and is retried on the
// survivor; the worker leaves the pool once, so after its slot
// restarts the live-workers gauge matches the pool, the killed
// worker's span has ended once, and the ledger balances.
func TestKillAsAppReturns(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 2, Provider: r.local()})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{Retries: 1}, ex)
	d.Register(sleepApp("cpu", time.Second))
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	ended := map[string]int{}
	d.Collector().OnSpanEnd(func(s obs.Span) {
		if s.Cat == "htex" && s.Name == "worker" {
			ended[s.Track]++
		}
	})
	var fut *faas.Future
	var victim string
	r.env.Spawn("main", func(p *devent.Proc) {
		fut = d.Submit("sleep")
		p.Sleep(time.Second) // the app returns at this instant too
		victim = fut.Task().Worker
		if !ex.KillWorker(victim) {
			t.Error("kill failed")
			return
		}
		v, err := fut.Result(p)
		if err != nil || v == victim || fut.Task().Tries != 2 {
			t.Errorf("result %v, %v after %d tries; want the survivor's after 2", v, err, fut.Task().Tries)
		}
	})
	r.run(t)
	live := d.Collector().Metrics().Gauge("htex_workers_live", obs.L("executor", "cpu")).Value()
	if n := len(ex.WorkerNames()); n != 2 || live != float64(n) {
		t.Errorf("htex_workers_live = %v with %d workers, want 2 and 2", live, n)
	}
	if ended[victim] != 1 {
		t.Errorf("worker spans ended on %s: %d, want 1", victim, ended[victim])
	}
	if err := d.Ledger().Err(); err != nil || d.Ledger().Terminal() != 1 {
		t.Errorf("ledger: %v, %d terminal", err, d.Ledger().Terminal())
	}
}

// Restart right after a mid-task kill returns at the kill instant: it
// waits for the killed worker to leave the pool, not for its orphaned
// app, which computes until 10 s and then touches neither the restarted
// pool nor its gauges.
func TestRestartAfterKillSkipsOrphan(t *testing.T) {
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
		if !ex.KillWorker(ex.WorkerNames()[0]) {
			t.Error("kill failed")
			return
		}
		if err := ex.Restart(p, nil, nil); err != nil {
			t.Error(err)
			return
		}
		if p.Now() != time.Second {
			t.Errorf("Restart returned at %v, want the kill instant 1s", p.Now())
		}
		if _, err := f.Result(p); !errors.Is(err, ErrWorkerLost) {
			t.Errorf("err = %v, want ErrWorkerLost", err)
		}
	})
	r.run(t)
	live := d.Collector().Metrics().Gauge("htex_workers_live", obs.L("executor", "cpu")).Value()
	if ex.Workers() != 1 || live != 1 {
		t.Errorf("after the orphan returned: %d workers, htex_workers_live = %v; want 1 and 1", ex.Workers(), live)
	}
}
