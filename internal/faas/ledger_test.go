package faas

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/devent"
)

// The ledger holds on a clean run — including tasks that fail, as long
// as each reaches a terminal state exactly once — and tallies the
// outcomes.
func TestLedgerCleanRun(t *testing.T) {
	env := devent.NewEnv()
	ex := &retryExecutor{env: env, label: "x", delay: time.Millisecond,
		fn: func(call int) (any, error) {
			if call == 1 {
				return nil, errors.New("transient")
			}
			return "ok", nil
		}}
	d := runDFK(t, Config{Retries: 2}, ex, func(p *devent.Proc, d *DFK) {
		futs := []*Future{d.Submit("fn"), d.Submit("fn"), d.Submit("fn"), d.Submit("nope")}
		for _, f := range futs {
			f.Result(p)
		}
	})
	l := d.Ledger()
	if err := l.Err(); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	if l.Submitted() != 4 || l.Terminal() != 4 {
		t.Fatalf("submitted=%d terminal=%d", l.Submitted(), l.Terminal())
	}
	if got := l.Outcomes(); len(got) != 2 || got["done"] != 3 || got["failed"] != 1 {
		t.Fatalf("outcomes = %v", got)
	}
}

// blackholeExecutor accepts every submission and never completes it.
type blackholeExecutor struct{ env *devent.Env }

func (b blackholeExecutor) Label() string { return "hole" }
func (b blackholeExecutor) Start() error  { return nil }
func (b blackholeExecutor) Submit(*Task) *devent.Event {
	return b.env.NewEvent()
}

// A task that never reaches a terminal state (its executor swallowed
// it) is reported as lost once the run drains.
func TestLedgerCatchesLostTask(t *testing.T) {
	env := devent.NewEnv()
	d := NewDFK(env, Config{}, blackholeExecutor{env})
	d.Register(App{Name: "fn", Executor: "hole"})
	env.Spawn("main", func(p *devent.Proc) {
		d.Submit("fn")
		d.Submit("nope") // fails at once: terminal
	})
	if err := env.Run(); !errors.Is(err, devent.ErrDeadlock) {
		t.Fatalf("run err = %v, want the deadlock of the launch step awaiting the lost attempt", err)
	}
	err := d.Ledger().Err()
	if err == nil || !strings.Contains(err.Error(), "1 of 2 submitted tasks never reached a terminal state") {
		t.Fatalf("err = %v", err)
	}
}

// A task finished a second time is reported by ID, and the second
// finish changes neither its future nor the tallies.
func TestLedgerCatchesDoubleTerminal(t *testing.T) {
	env := devent.NewEnv()
	d, _ := newTestDFK(t, env, 0)
	d.Register(App{Name: "fn", Executor: "stub", Fn: func(*Invocation) (any, error) { return "ok", nil }})
	var f *Future
	env.Spawn("main", func(p *devent.Proc) {
		f = d.Submit("fn")
		f.Result(p)
		task := f.Task()
		task.Status, task.Err = TaskFailed, errors.New("late failure")
		d.finish(task, nil)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	err := d.Ledger().Err()
	if err == nil || !strings.Contains(err.Error(), "task 1 reached a terminal state twice") {
		t.Fatalf("err = %v", err)
	}
	if v, ferr := f.Event().Value(), f.Event().Err(); v != "ok" || ferr != nil {
		t.Fatalf("future changed by the second finish: v=%v err=%v", v, ferr)
	}
	if got := d.Ledger().Outcomes(); len(got) != 1 || got["done"] != 1 {
		t.Fatalf("outcomes = %v", got)
	}
}
