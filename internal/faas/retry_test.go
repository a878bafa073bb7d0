package faas

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/obs"
)

// retryExecutor runs every submission through fn after delay, entirely
// in virtual time.
type retryExecutor struct {
	env   *devent.Env
	label string
	delay time.Duration
	fn    func(try int) (any, error)
	calls int
}

func (s *retryExecutor) Label() string { return s.label }
func (s *retryExecutor) Start() error  { return nil }
func (s *retryExecutor) Shutdown()     {}
func (s *retryExecutor) Workers() int  { return 1 }
func (s *retryExecutor) Submit(task *Task, app App, args []any) *devent.Event {
	s.calls++
	call := s.calls
	ev := s.env.NewNamedEvent(fmt.Sprintf("retry-%d", call))
	s.env.Schedule(s.delay, func() {
		v, err := s.fn(call)
		if err != nil {
			ev.Fail(err)
			return
		}
		ev.Fire(v)
	})
	return ev
}

func runDFK(t *testing.T, cfg Config, ex *retryExecutor, body func(p *devent.Proc, d *DFK)) *DFK {
	t.Helper()
	d := NewDFK(ex.env, cfg, ex)
	d.Register(App{Name: "fn", Executor: ex.label, Fn: nil})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	ex.env.Spawn("main", func(p *devent.Proc) { body(p, d) })
	if err := ex.env.Run(); err != nil {
		t.Fatal(err)
	}
	return d
}

// A task that outlives Config.Timeout fails terminally with
// ErrTaskTimeout and status TaskTimedOut, even with retries left.
func TestTaskTimeout(t *testing.T) {
	env := devent.NewEnv()
	ex := &retryExecutor{env: env, label: "x", delay: 10 * time.Second,
		fn: func(int) (any, error) { return "late", nil }}
	var got error
	var task *Task
	d := runDFK(t, Config{Retries: 3, Timeout: 2 * time.Second}, ex, func(p *devent.Proc, d *DFK) {
		fut := d.Submit("fn")
		task = fut.Task()
		_, got = fut.Result(p)
		if now := p.Now(); now != 2*time.Second {
			t.Errorf("timed out at %v, want 2s", now)
		}
	})
	if !errors.Is(got, ErrTaskTimeout) {
		t.Fatalf("err = %v, want ErrTaskTimeout", got)
	}
	if task.Status != TaskTimedOut || !task.Status.Terminal() {
		t.Fatalf("status = %v", task.Status)
	}
	if task.Tries != 1 {
		t.Fatalf("tries = %d, want 1 (no retry after deadline)", task.Tries)
	}
	if got := d.Collector().Metrics().Counter("faas_tasks_timed_out_total", obs.L("app", "fn")).Value(); got != 1 {
		t.Fatalf("tasks_timed_out_total = %v", got)
	}
}

// Retries wait out the exponential backoff: with base 1s and three
// attempts the dispatches land at 0s, 1s (+1s backoff), 3s (+2s).
func TestRetryExponentialBackoff(t *testing.T) {
	env := devent.NewEnv()
	var dispatches []time.Duration
	boom := errors.New("boom")
	ex := &retryExecutor{env: env, label: "x"}
	ex.fn = func(call int) (any, error) {
		if call < 3 {
			return nil, boom
		}
		return "ok", nil
	}
	d := NewDFK(env, Config{Retries: 2, RetryBackoff: time.Second}, ex)
	d.Register(App{Name: "fn", Executor: "x"})
	d.OnTaskEvent(func(ev TaskEvent) {
		if ev.Status == TaskLaunched {
			dispatches = append(dispatches, ev.At)
		}
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var v any
	var err error
	env.Spawn("main", func(p *devent.Proc) {
		v, err = d.Submit("fn").Result(p)
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil || v != "ok" {
		t.Fatalf("v=%v err=%v", v, err)
	}
	want := []time.Duration{0, time.Second, 3 * time.Second}
	if len(dispatches) != len(want) {
		t.Fatalf("dispatches = %v", dispatches)
	}
	for i := range want {
		if dispatches[i] != want[i] {
			t.Fatalf("dispatch %d at %v, want %v (all: %v)", i, dispatches[i], want[i], dispatches)
		}
	}
}

// Jittered backoff is deterministic per seed and bounded by the
// configured fraction.
func TestRetryJitterDeterministic(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		env := devent.NewEnv()
		d := NewDFK(env, Config{
			RetryBackoff:    time.Second,
			RetryBackoffMax: 4 * time.Second,
			RetryJitter:     0.5,
			Seed:            seed,
		})
		var out []time.Duration
		for i := 1; i <= 6; i++ {
			out = append(out, d.backoff(i))
		}
		return out
	}
	a, b := delays(7), delays(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := delays(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
	// Bounds: attempt 1 base 1s, jitter 0.5 → [0.5s, 1.5s]; attempts
	// ≥3 capped at 4s → [2s, 6s].
	if a[0] < 500*time.Millisecond || a[0] > 1500*time.Millisecond {
		t.Fatalf("attempt 1 delay %v out of bounds", a[0])
	}
	for i := 2; i < len(a); i++ {
		if a[i] < 2*time.Second || a[i] > 6*time.Second {
			t.Fatalf("attempt %d delay %v out of bounds", i+1, a[i])
		}
	}
}

// A dispatch-fault hook fails attempts transiently; the retry loop
// recovers and the hook sees every attempt.
func TestDispatchFaultHookRetried(t *testing.T) {
	env := devent.NewEnv()
	ex := &retryExecutor{env: env, label: "x", fn: func(int) (any, error) { return "ok", nil }}
	d := NewDFK(env, Config{Retries: 2}, ex)
	d.Register(App{Name: "fn", Executor: "x"})
	injected := errors.New("fault: injected transient submit failure")
	attempts := 0
	d.SetDispatchFault(func(task *Task) error {
		attempts++
		if attempts <= 2 {
			return injected
		}
		return nil
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var v any
	var err error
	env.Spawn("main", func(p *devent.Proc) {
		v, err = d.Submit("fn").Result(p)
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil || v != "ok" {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if attempts != 3 || ex.calls != 1 {
		t.Fatalf("attempts=%d executor calls=%d", attempts, ex.calls)
	}
}

// Draining DFKs fail new submissions fast with ErrShutdown while
// in-flight work completes.
func TestDFKDrain(t *testing.T) {
	env := devent.NewEnv()
	ex := &retryExecutor{env: env, label: "x", delay: time.Second,
		fn: func(int) (any, error) { return "ok", nil }}
	d := NewDFK(env, Config{}, ex)
	d.Register(App{Name: "fn", Executor: "x"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var inflight, rejected error
	env.Spawn("main", func(p *devent.Proc) {
		fut := d.Submit("fn")
		d.Drain()
		_, rejected = d.Submit("fn").Result(p)
		_, inflight = fut.Result(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rejected, ErrShutdown) {
		t.Fatalf("rejected = %v, want ErrShutdown", rejected)
	}
	if inflight != nil {
		t.Fatalf("in-flight task failed: %v", inflight)
	}
}
