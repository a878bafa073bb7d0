package colmena

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/faas/htex"
	"repro/internal/faas/provider"
	"repro/internal/gpuctl"
)

func newServer(t *testing.T) (*devent.Env, *TaskServer) {
	t.Helper()
	env := devent.NewEnv()
	node := gpuctl.NewNode(env)
	ex, err := htex.New(env, htex.Config{Label: "cpu", MaxWorkers: 4, Provider: provider.NewLocal(env, node)})
	if err != nil {
		t.Fatal(err)
	}
	dfk := faas.NewDFK(env, faas.Config{}, ex)
	if err := dfk.Start(); err != nil {
		t.Fatal(err)
	}
	return env, NewTaskServer(dfk, NewQueues(env))
}

func TestSubmitRoutesToTopic(t *testing.T) {
	env, ts := newServer(t)
	ts.RegisterMethod("square", "cpu", func(inv *faas.Invocation) (any, error) {
		inv.Compute(time.Second)
		return inv.Arg(0).(int) * inv.Arg(0).(int), nil
	})
	var got Result
	env.Spawn("thinker", func(p *devent.Proc) {
		ts.Submit("results", "square", 6)
		got = ts.Queues().Recv(p, "results")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Err != nil || got.Value != 36 || got.Method != "square" || got.Topic != "results" {
		t.Fatalf("got = %+v", got)
	}
	if got.Task == nil || got.Task.EndTime-got.Task.StartTime != time.Second {
		t.Fatalf("task timing = %+v", got.Task)
	}
	if ts.Submitted() != 1 {
		t.Fatalf("submitted = %d", ts.Submitted())
	}
}

func TestErrorsFlowToQueue(t *testing.T) {
	env, ts := newServer(t)
	boom := errors.New("bad chemistry")
	ts.RegisterMethod("explode", "cpu", func(*faas.Invocation) (any, error) { return nil, boom })
	var got Result
	env.Spawn("thinker", func(p *devent.Proc) {
		ts.Submit("results", "explode")
		got = ts.Queues().Recv(p, "results")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, boom) {
		t.Fatalf("err = %v", got.Err)
	}
}

func TestTopicsAreIndependent(t *testing.T) {
	env, ts := newServer(t)
	ts.RegisterMethod("id", "cpu", func(inv *faas.Invocation) (any, error) { return inv.Arg(0), nil })
	var a, b Result
	env.Spawn("thinker", func(p *devent.Proc) {
		ts.Submit("alpha", "id", "A")
		ts.Submit("beta", "id", "B")
		b = ts.Queues().Recv(p, "beta")
		a = ts.Queues().Recv(p, "alpha")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Value != "A" || b.Value != "B" {
		t.Fatalf("a=%v b=%v", a.Value, b.Value)
	}
}

func TestCollectN(t *testing.T) {
	env, ts := newServer(t)
	ts.RegisterMethod("id", "cpu", func(inv *faas.Invocation) (any, error) {
		inv.Compute(time.Duration(inv.Arg(0).(int)) * time.Second)
		return inv.Arg(0), nil
	})
	var got []Result
	env.Spawn("thinker", func(p *devent.Proc) {
		for i := 3; i >= 1; i-- {
			ts.Submit("r", "id", i)
		}
		got = CollectN(p, ts.Queues(), "r", 3)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	// Arrival order: shortest first.
	if got[0].Value != 1 || got[2].Value != 3 {
		t.Fatalf("order: %v %v %v", got[0].Value, got[1].Value, got[2].Value)
	}
	if d := got[2].Task.EndTime - got[2].Task.StartTime; d != 3*time.Second {
		t.Fatalf("elapsed = %v", d)
	}
}

func TestThinkerAgentsJoin(t *testing.T) {
	env, ts := newServer(t)
	ts.RegisterMethod("id", "cpu", func(inv *faas.Invocation) (any, error) { return inv.Arg(0), nil })
	total, joined := 0, false
	submitter := env.Spawn("agent:submitter", func(p *devent.Proc) {
		for i := 0; i < 5; i++ {
			ts.Submit("r", "id", i)
		}
	})
	consumer := env.Spawn("agent:consumer", func(p *devent.Proc) {
		for i := 0; i < 5; i++ {
			r := ts.Queues().Recv(p, "r")
			total += r.Value.(int)
		}
	})
	env.Spawn("main", func(p *devent.Proc) {
		p.Wait(submitter.Done())
		p.Wait(consumer.Done())
		joined = true
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 10 || !joined {
		t.Fatalf("total = %d, joined = %v", total, joined)
	}
}

func TestPending(t *testing.T) {
	env, ts := newServer(t)
	ts.RegisterMethod("id", "cpu", func(inv *faas.Invocation) (any, error) { return 1, nil })
	env.Spawn("thinker", func(p *devent.Proc) {
		ts.Submit("r", "id")
		p.Sleep(time.Second)
		if n := ts.Queues().Pending("r"); n != 1 {
			t.Errorf("pending = %d", n)
		}
		ts.Queues().Recv(p, "r")
		if n := ts.Queues().Pending("r"); n != 0 {
			t.Errorf("pending after recv = %d", n)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
