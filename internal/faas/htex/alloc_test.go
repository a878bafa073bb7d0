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
// collector: in steady state, three objects. They are its future, which
// holds its task, the state of its launch (whose devent step is the
// task itself), its attempt record and its one argument; its lane
// name; and its boxed time.Duration argument, which AppFunc's any
// arguments require. The caller's variadic slice stays on its stack,
// and the app runs on the worker's proc. The budget allows one object
// more than that, so one more per-task object fails the test.
// The byte bound, with attribute chunks and span-window growth
// amortised in, likewise catches a field added to a per-task object;
// it is not checked under -race, which allocates more per task.
func TestPerTaskAllocationBudget(t *testing.T) {
	const warm, tasks, window, budget, byteBudget = 2000, 10000, 64, 4, 1316
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
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / tasks
	t.Logf("%.2f heap allocations, %.0f B per task", per, bytes)
	if per > budget {
		t.Fatalf("%.2f heap allocations per task, budget %d", per, budget)
	}
	if bytes > byteBudget && !raceEnabled {
		t.Fatalf("%.0f B allocated per task, budget %d", bytes, byteBudget)
	}
}
