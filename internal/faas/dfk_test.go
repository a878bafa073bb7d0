package faas

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/devent"
)

// stubExecutor runs tasks inline on a spawned proc after a fixed
// delay; good enough to exercise the DFK.
type stubExecutor struct {
	env     *devent.Env
	label   string
	delay   time.Duration
	started bool
	n       int
}

func (s *stubExecutor) Label() string { return s.label }
func (s *stubExecutor) Start() error  { s.started = true; return nil }
func (s *stubExecutor) Shutdown()     { s.started = false }
func (s *stubExecutor) Workers() int  { return 1 }

func (s *stubExecutor) Submit(task *Task, app App, args []any) *devent.Event {
	done := s.env.NewEvent()
	s.n++
	s.env.Spawn("stub-run", func(p *devent.Proc) {
		task.Status = TaskRunning
		task.StartTime = p.Now()
		task.Worker = "stub"
		p.Sleep(s.delay)
		inv := NewInvocation(p, task, args, nil, nil)
		res, err := app.Fn(&inv)
		task.EndTime = p.Now()
		if err != nil {
			done.Fail(err)
		} else {
			done.Fire(res)
		}
	})
	return done
}

func newTestDFK(t *testing.T, env *devent.Env, retries int) (*DFK, *stubExecutor) {
	t.Helper()
	ex := &stubExecutor{env: env, label: "stub", delay: time.Second}
	d := NewDFK(env, Config{RunDir: "test", Retries: retries}, ex)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	return d, ex
}

func TestSubmitResultRoundTrip(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 0)
	d.Register(App{Name: "double", Executor: "stub", Fn: func(inv *Invocation) (any, error) {
		return inv.Arg(0).(int) * 2, nil
	}})
	var got any
	env.Spawn("main", func(p *devent.Proc) {
		fut := d.Submit("double", 21)
		v, err := fut.Result(p)
		if err != nil {
			t.Error(err)
			return
		}
		got = v
		if fut.Task().Status != TaskDone {
			t.Errorf("status = %v", fut.Task().Status)
		}
		if fut.Task().RunTime() != time.Second {
			t.Errorf("runtime = %v", fut.Task().RunTime())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestUnknownAppFailsFuture(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 0)
	env.Spawn("main", func(p *devent.Proc) {
		_, err := d.Submit("nope").Result(p)
		if err == nil {
			t.Error("expected error")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExecutorFailsFuture(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 0)
	d.Register(App{Name: "fn", Executor: "ghost", Fn: func(*Invocation) (any, error) { return nil, nil }})
	env.Spawn("main", func(p *devent.Proc) {
		_, err := d.Submit("fn").Result(p)
		if !errors.Is(err, ErrNoExecutor) {
			t.Errorf("err = %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFutureArgumentsResolve(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 0)
	d.Register(App{Name: "const", Executor: "stub", Fn: func(*Invocation) (any, error) { return 10, nil }})
	d.Register(App{Name: "addOne", Executor: "stub", Fn: func(inv *Invocation) (any, error) {
		return inv.Arg(0).(int) + 1, nil
	}})
	env.Spawn("main", func(p *devent.Proc) {
		a := d.Submit("const")
		b := d.Submit("addOne", a) // depends on a
		v, err := b.Result(p)
		if err != nil {
			t.Error(err)
			return
		}
		if v != 11 {
			t.Errorf("v = %v", v)
		}
		// The dependent task started only after its dependency ended.
		if b.Task().StartTime < a.Task().EndTime {
			t.Errorf("dependency violated: %v < %v", b.Task().StartTime, a.Task().EndTime)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDependencyFailurePropagates(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 0)
	boom := errors.New("boom")
	d.Register(App{Name: "bad", Executor: "stub", Fn: func(*Invocation) (any, error) { return nil, boom }})
	d.Register(App{Name: "dependent", Executor: "stub", Fn: func(inv *Invocation) (any, error) { return 1, nil }})
	env.Spawn("main", func(p *devent.Proc) {
		a := d.Submit("bad")
		b := d.Submit("dependent", a)
		_, err := b.Result(p)
		if !errors.Is(err, ErrDependency) {
			t.Errorf("err = %v", err)
		}
		if b.Task().Status != TaskFailed {
			t.Errorf("status = %v", b.Task().Status)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRetriesRecoverTransientFailure(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 1) // retries=1, as in the paper's config
	calls := 0
	d.Register(App{Name: "flaky", Executor: "stub", Fn: func(*Invocation) (any, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}})
	env.Spawn("main", func(p *devent.Proc) {
		fut := d.Submit("flaky")
		v, err := fut.Result(p)
		if err != nil || v != "ok" {
			t.Errorf("v=%v err=%v", v, err)
		}
		if fut.Task().Tries != 2 {
			t.Errorf("tries = %d", fut.Task().Tries)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestRetriesExhaust(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 2)
	calls := 0
	boom := errors.New("always")
	d.Register(App{Name: "hopeless", Executor: "stub", Fn: func(*Invocation) (any, error) {
		calls++
		return nil, boom
	}})
	env.Spawn("main", func(p *devent.Proc) {
		_, err := d.Submit("hopeless").Result(p)
		if !errors.Is(err, boom) {
			t.Errorf("err = %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 3 { // initial + 2 retries
		t.Fatalf("calls = %d", calls)
	}
}

func TestTaskEventHooks(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 0)
	d.Register(App{Name: "fn", Executor: "stub", Fn: func(*Invocation) (any, error) { return nil, nil }})
	var seq []TaskStatus
	d.OnTaskEvent(func(ev TaskEvent) { seq = append(seq, ev.Status) })
	env.Spawn("main", func(p *devent.Proc) {
		d.Submit("fn").Result(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Worker-side pickup (TaskRunning) is observable through the
	// collector's span stream, not DFK hooks.
	want := fmt.Sprint([]TaskStatus{TaskPending, TaskLaunched, TaskDone})
	if fmt.Sprint(seq) != want {
		t.Fatalf("seq = %v", seq)
	}
}

func TestTasksAccounting(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 0)
	d.Register(App{Name: "fn", Executor: "stub", Fn: func(*Invocation) (any, error) { return nil, nil }})
	var f1, f2 *Future
	env.Spawn("main", func(p *devent.Proc) {
		f1 = d.Submit("fn")
		f2 = d.Submit("fn")
		p.Wait(devent.AllOf(env, f1.Event(), f2.Event()))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	t1, t2 := f1.Task(), f2.Task()
	if t1.ID == t2.ID || t1.Status != TaskDone || t2.Status != TaskDone {
		t.Fatalf("tasks = %+v, %+v", t1, t2)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[TaskStatus]string{
		TaskPending: "pending", TaskLaunched: "launched", TaskRunning: "running",
		TaskDone: "done", TaskFailed: "failed", TaskStatus(99): "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d -> %s", s, s.String())
		}
	}
}

func TestConfigString(t *testing.T) {
	s := Config{RunDir: "runs", Retries: 2}.String()
	if !strings.Contains(s, "runs") || !strings.Contains(s, "2") {
		t.Fatalf("s = %q", s)
	}
}

func TestTaskTimingAccessors(t *testing.T) {
	task := &Task{SubmitTime: time.Second, StartTime: 3 * time.Second, EndTime: 10 * time.Second}
	if task.QueueDelay() != 2*time.Second {
		t.Fatalf("queue = %v", task.QueueDelay())
	}
	if task.RunTime() != 7*time.Second {
		t.Fatalf("run = %v", task.RunTime())
	}
}

func TestInvocationWithoutWorker(t *testing.T) {
	env := NewEnvForTest()
	env.Spawn("p", func(p *devent.Proc) {
		inv := NewInvocation(p, &Task{}, []any{1, 2}, nil, nil)
		if _, err := inv.GPU(); err == nil {
			t.Error("GPU without worker succeeded")
		}
		if inv.WorkerName() != "" {
			t.Error("worker name without worker")
		}
		// State returns a throwaway map rather than nil.
		inv.State()["k"] = "v"
		if inv.Arg(5) != nil || inv.Arg(-1) != nil {
			t.Error("out-of-range Arg not nil")
		}
		if inv.Arg(1) != 2 {
			t.Error("Arg(1) wrong")
		}
		if len(inv.Args()) != 2 {
			t.Error("Args length")
		}
		if inv.Proc() != p || inv.Task() == nil || inv.Env() != nil {
			t.Error("accessors wrong")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFutureAccessors(t *testing.T) {
	env := NewEnvForTest()
	task := &Task{ID: 7}
	done := env.NewEvent()
	fut := &Future{task: task, done: done}
	if fut.Done() || fut.Task() != task || fut.Event() != done {
		t.Fatal("future accessors")
	}
	done.Fire("x")
	if !fut.Done() {
		t.Fatal("not done after fire")
	}
}

// NewEnvForTest keeps the devent import local to these tests.
func NewEnvForTest() *devent.Env { return devent.NewEnv() }
