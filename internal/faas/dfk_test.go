package faas

import (
	"errors"
	"testing"
	"time"
	"unsafe"

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

func (s *stubExecutor) Submit(task *Task) *devent.Event {
	a := task.NextAttempt()
	done := a.Event()
	s.env.InitEvent(done)
	s.n++
	s.env.Spawn("stub-run", func(p *devent.Proc) {
		task.Status = TaskRunning
		task.StartTime = p.Now()
		task.Worker = "stub"
		p.Sleep(s.delay)
		a.Bind(p, nil, nil)
		res, err := a.Run()
		a.Release()
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
	d := NewDFK(env, Config{Retries: retries}, ex)
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

func TestTasksAccounting(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 0)
	d.Register(App{Name: "fn", Executor: "stub", Fn: func(*Invocation) (any, error) { return nil, nil }})
	var f1, f2 *Future
	env.Spawn("main", func(p *devent.Proc) {
		f1 = d.Submit("fn")
		f2 = d.Submit("fn")
		p.Wait(f1.Event())
		p.Wait(f2.Event())
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
		inv := &Invocation{proc: p, task: &Task{}, args: []any{1, 2}}
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
	fut := &Future{task: Task{ID: 7}}
	task := &fut.task
	env.InitEvent(&task.done)
	done := &task.done
	if fut.Done() || fut.Task() != task || fut.Task().ID != 7 || fut.Event() != done {
		t.Fatal("future accessors")
	}
	done.Fire("x")
	if !fut.Done() {
		t.Fatal("not done after fire")
	}
}

// A task's Future holds the task, its attempt slot and one inline
// argument in 496 bytes, 16 under the top of the 512-byte malloc size
// class. A larger field moves every task into the 576-byte class, and
// autoscale, whose tasks take no arguments, would then allocate more
// bytes per task than with a separate attempt record.
func TestFutureSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Future{}); got > 512 {
		t.Fatalf("Future is %d bytes, want <= 512", got)
	}
}

// Submit copies its arguments: one into the future, more into a fresh
// slice. Either way the caller may reuse its slice at once.
func TestSubmitCopiesArgs(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 0)
	d.Register(App{Name: "args", Executor: "stub", Fn: func(inv *Invocation) (any, error) {
		return inv.Args(), nil
	}})
	var got [][]any
	env.Spawn("main", func(p *devent.Proc) {
		for _, args := range [][]any{{1}, {1, 2, 3}} {
			fut := d.Submit("args", args...)
			args[0] = "reused"
			v, err := fut.Result(p)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, v.([]any))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != 1 || got[0][0] != 1 || len(got[1]) != 3 || got[1][0] != 1 || got[1][2] != 3 {
		t.Fatalf("apps saw %v", got)
	}
}

// NewEnvForTest keeps the devent import local to these tests.
func NewEnvForTest() *devent.Env { return devent.NewEnv() }
