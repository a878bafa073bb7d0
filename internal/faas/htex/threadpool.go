package htex

import (
	"fmt"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/obs"
)

// ThreadPool is the analogue of Python's ThreadPoolExecutor, which
// Parsl also supports for CPU-only scaling (§2.2.1): N workers in the
// main process, no worker-init cost, no accelerator bindings.
type ThreadPool struct {
	env      *devent.Env
	label    string
	size     int
	queue    *devent.Chan[*submission]
	shutdown *devent.Event
	obs      *obs.Collector
	cPicked  *obs.Counter
	started  bool
	nworkers int
}

// NewThreadPool creates a pool with the given worker count.
func NewThreadPool(env *devent.Env, label string, size int) (*ThreadPool, error) {
	if size <= 0 {
		return nil, fmt.Errorf("htex: thread pool %q needs positive size", label)
	}
	return &ThreadPool{
		env:   env,
		label: label,
		size:  size,
		queue: devent.NewChan[*submission](env, 1<<20),
	}, nil
}

// Label implements faas.Executor.
func (tp *ThreadPool) Label() string { return tp.label }

// SetCollector wires the DFK's collector for queue/run spans and
// pickup counts.
func (tp *ThreadPool) SetCollector(c *obs.Collector) {
	tp.obs = c
	tp.cPicked = c.Metrics().Counter("htex_tasks_picked_total", obs.L("executor", tp.label))
}

// Workers implements faas.Executor.
func (tp *ThreadPool) Workers() int { return tp.nworkers }

// Start implements faas.Executor.
func (tp *ThreadPool) Start() error {
	if tp.started {
		return nil
	}
	tp.started = true
	tp.shutdown = tp.env.NewNamedEvent("threadpool-shutdown:" + tp.label)
	for i := 0; i < tp.size; i++ {
		name := fmt.Sprintf("%s/thread%d", tp.label, i)
		tp.nworkers++
		tp.env.Spawn(name, func(p *devent.Proc) {
			p.SetDaemon(true) // idle threads are not deadlocks
			for {
				sub, ok, cancelled := tp.queue.RecvOr(p, tp.shutdown)
				if cancelled || !ok {
					return
				}
				t := sub.task
				t.Status = faas.TaskRunning
				t.StartTime = p.Now()
				t.Worker = name
				tp.obs.EndSpan(sub.qspan, obs.String("worker", name))
				rspan := tp.obs.StartSpan("htex", "run", name, t.Span,
					obs.Int("task", t.ID), obs.String("app", t.App))
				tp.cPicked.Inc()
				result, err := sub.app.Fn(faas.NewInvocation(p, t, sub.args, nil, nil))
				t.EndTime = p.Now()
				if err != nil {
					tp.obs.EndSpan(rspan,
						obs.String("status", "failed"),
						obs.String("error", err.Error()))
					sub.done.Fail(err)
				} else {
					tp.obs.EndSpan(rspan, obs.String("status", "done"))
					sub.done.Fire(result)
				}
			}
		})
	}
	return nil
}

// Submit implements faas.Executor.
func (tp *ThreadPool) Submit(task *faas.Task, app faas.App, args []any) *devent.Event {
	done := tp.env.NewNamedEvent("tp-task")
	if !tp.started {
		done.Fail(faas.ErrShutdown)
		return done
	}
	sub := &submission{task: task, app: app, args: args, done: done}
	sub.qspan = tp.obs.StartSpan("htex", "queue", task.Track(), task.Span,
		obs.String("executor", tp.label))
	if !tp.queue.TrySend(sub) {
		tp.obs.EndSpan(sub.qspan, obs.String("status", "overflow"))
		done.Fail(fmt.Errorf("htex: thread pool %q queue full", tp.label))
	}
	return done
}

// Shutdown implements faas.Executor.
func (tp *ThreadPool) Shutdown() {
	if !tp.started {
		return
	}
	tp.started = false
	tp.shutdown.Fire(nil)
	for {
		sub, ok := tp.queue.TryRecv()
		if !ok {
			break
		}
		tp.obs.EndSpan(sub.qspan, obs.String("status", "shutdown"))
		sub.done.Fail(faas.ErrShutdown)
	}
	tp.nworkers = 0
}

var _ faas.Executor = (*ThreadPool)(nil)
