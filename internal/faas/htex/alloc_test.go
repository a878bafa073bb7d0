package htex

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/obs"
)

// discardSink streams spans nowhere.
type discardSink struct{}

func (discardSink) EmitSpan(*obs.Span) {}

// A microtask allocates only what it keeps on its way from Submit
// through the DFK, the htex queue and worker, and a streaming
// collector: in steady state, its task, its lane name, its argument
// slice and boxed argument, its submission, and the proc of its
// launch (whose body is the task itself, not a closure); the app runs
// on the worker's proc. That is 6 objects; the budget allows one more,
// so one more per-task object fails the test.
func TestPerTaskAllocationBudget(t *testing.T) {
	const warm, tasks, window, budget = 2000, 10000, 64, 7
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 16, Provider: r.local()})
	if err != nil {
		t.Fatal(err)
	}
	c := obs.New(r.env)
	c.SetSink(discardSink{})
	d := faas.NewDFK(r.env, faas.Config{Collector: c}, ex)
	d.Register(faas.App{Name: "micro", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		svc, _ := inv.Arg(0).(time.Duration)
		inv.Compute(svc)
		return nil, nil
	}})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	r.env.Spawn("main", func(p *devent.Proc) {
		rng := rand.New(rand.NewSource(1))
		inflight := make([]*faas.Future, 0, window)
		await := func(f *faas.Future) bool {
			if _, err := f.Result(p); err != nil {
				t.Error(err)
				return false
			}
			return true
		}
		for i := 0; i < warm+tasks; i++ {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			p.Sleep(time.Duration(rng.ExpFloat64() * float64(125*time.Microsecond)))
			if len(inflight) == window {
				if !await(inflight[0]) {
					return
				}
				inflight = append(inflight[:0], inflight[1:]...)
			}
			svc := time.Duration(rng.ExpFloat64() * float64(2*time.Millisecond))
			inflight = append(inflight, d.Submit("micro", svc))
		}
		for _, f := range inflight {
			if !await(f) {
				return
			}
		}
		runtime.ReadMemStats(&after)
	})
	r.run(t)
	per := float64(after.Mallocs-before.Mallocs) / tasks
	t.Logf("%.2f heap allocations per task", per)
	if per > budget {
		t.Fatalf("%.2f heap allocations per task, budget %d", per, budget)
	}
}
