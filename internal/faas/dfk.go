package faas

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/devent"
	"repro/internal/obs"
)

// DFK is the DataFlowKernel: it owns the app registry and executors,
// resolves future-valued arguments, dispatches tasks with deadline
// enforcement, retries failures with exponential backoff, and emits
// task spans and metrics to its collector.
type DFK struct {
	env       *devent.Env
	cfg       Config
	obs       *obs.Collector
	executors map[string]Executor
	apps      map[string]App
	metrics   map[string]*appMetrics
	hooks     []func(TaskEvent)
	nextID    int
	started   bool
	draining  bool
	rng       *rand.Rand
	// dispatchFault, when set, is consulted before every dispatch
	// attempt; a non-nil error fails that attempt (retriable). Fault
	// injectors use it to model transient submit failures.
	dispatchFault func(*Task) error
	// admission, when set, is consulted once per Submit before the
	// task spawns its launch proc; a shed decision fails the task fast
	// with a ShedError (terminal, never dispatched). Autoscalers use it
	// for burn-driven load shedding.
	admission func(*Task) (shed bool, retryAfter time.Duration)
}

// NewDFK creates a DataFlowKernel over the given executors. If the
// config carries no collector, a fresh one is created over env.
func NewDFK(env *devent.Env, cfg Config, executors ...Executor) *DFK {
	if cfg.Collector == nil {
		cfg.Collector = obs.New(env)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	d := &DFK{
		env:       env,
		cfg:       cfg,
		obs:       cfg.Collector,
		executors: make(map[string]Executor),
		apps:      make(map[string]App),
		metrics:   make(map[string]*appMetrics),
		rng:       rand.New(rand.NewSource(seed)),
	}
	for _, ex := range executors {
		d.executors[ex.Label()] = ex
		if o, ok := ex.(observed); ok {
			o.SetCollector(d.obs)
		}
	}
	return d
}

// observed is implemented by executors that emit queue/run/worker
// spans and metrics into the DFK's collector.
type observed interface{ SetCollector(*obs.Collector) }

// Env returns the simulation environment.
func (d *DFK) Env() *devent.Env { return d.env }

// Collector returns the DFK's collector (never nil).
func (d *DFK) Collector() *obs.Collector { return d.obs }

// AddExecutor registers (or replaces) an executor after construction;
// if the DFK is already started, the executor is started too. Used by
// reconfiguration flows that rebuild the GPU executor with a new
// partitioning.
func (d *DFK) AddExecutor(ex Executor) error {
	d.executors[ex.Label()] = ex
	if o, ok := ex.(observed); ok {
		o.SetCollector(d.obs)
	}
	if d.started {
		return ex.Start()
	}
	return nil
}

// Executor returns the executor with the given label (nil if absent).
func (d *DFK) Executor(label string) Executor { return d.executors[label] }

// Register adds an app to the registry; re-registering a name
// replaces it.
func (d *DFK) Register(app App) {
	d.apps[app.Name] = app
}

// OnTaskEvent installs a monitoring hook invoked at each DFK-side task
// status change (submit, launch, terminal). Worker-side pickup is
// observable through the collector's span stream instead.
func (d *DFK) OnTaskEvent(fn func(TaskEvent)) {
	d.hooks = append(d.hooks, fn)
}

func (d *DFK) emit(t *Task) {
	ev := TaskEvent{Task: t, Status: t.Status, At: d.env.Now()}
	for _, h := range d.hooks {
		h(ev)
	}
}

// appMetrics holds one app's per-task instruments. Each is looked up
// in the registry the first time it is used, so series are created in
// the same order as by a lookup per task.
type appMetrics struct {
	submitted *obs.Counter
	completed [TaskShed + 1]*obs.Counter // by terminal status
	queue     *obs.Histogram
	run       *obs.Histogram
}

// metricsFor returns the instrument cache of the named app.
func (d *DFK) metricsFor(app string) *appMetrics {
	m := d.metrics[app]
	if m == nil {
		m = &appMetrics{}
		d.metrics[app] = m
	}
	return m
}

// finish records a terminal status: hooks, span end (carrying the
// fields monitoring needs to rebuild the record), and counters.
func (d *DFK) finish(t *Task) {
	d.emit(t)
	errStr := ""
	if t.Err != nil {
		errStr = t.Err.Error()
	}
	d.obs.EndSpan(t.Span,
		obs.String("executor", t.Executor),
		obs.String("worker", t.Worker),
		obs.String("status", t.Status.String()),
		obs.Int("tries", t.Tries),
		obs.Dur("start_ns", t.StartTime),
		obs.String("error", errStr),
	)
	reg, am := d.obs.Metrics(), t.m
	if am.completed[t.Status] == nil {
		am.completed[t.Status] = reg.Counter("faas_tasks_completed_total", obs.L("app", t.App), obs.L("status", t.Status.String()))
	}
	am.completed[t.Status].Inc()
	if t.Status == TaskDone {
		if am.queue == nil {
			am.queue = reg.Histogram("faas_task_queue_delay_seconds", nil, obs.L("app", t.App))
			am.run = reg.Histogram("faas_task_run_seconds", nil, obs.L("app", t.App))
		}
		am.queue.ObserveDuration(t.QueueDelay())
		am.run.ObserveDuration(t.RunTime())
	}
}

// Start launches all executors (provider blocks, workers).
func (d *DFK) Start() error {
	if d.started {
		return nil
	}
	for _, ex := range d.executors {
		if err := ex.Start(); err != nil {
			return err
		}
	}
	d.started = true
	return nil
}

// SetDispatchFault installs (or, with nil, removes) a hook consulted
// before every dispatch attempt; returning an error fails that attempt
// as a transient submit failure, exercising the retry/backoff path.
func (d *DFK) SetDispatchFault(fn func(*Task) error) { d.dispatchFault = fn }

// SetAdmission installs (or, with nil, removes) the admission-control
// hook consulted once per Submit. Returning shed=true fails the task
// immediately with a ShedError carrying the retryAfter hint; it is
// never dispatched and the DFK's retry policy does not apply — load
// shedding pushes the retry decision back to the client. Shed tasks
// count in faas_tasks_shed_total (per app) and, like every terminal
// state, in faas_tasks_completed_total.
func (d *DFK) SetAdmission(fn func(*Task) (shed bool, retryAfter time.Duration)) { d.admission = fn }

// Drain stops accepting new submissions — subsequent Submits fail fast
// with ErrShutdown — while work already in flight runs to completion.
// Executors that support draining are drained too.
func (d *DFK) Drain() {
	d.draining = true
	for _, ex := range d.executors {
		if dr, ok := ex.(Drainer); ok {
			dr.Drain()
		}
	}
}

// Drainer is optionally implemented by executors that can stop
// accepting new submissions without killing in-flight work.
type Drainer interface{ Drain() }

// Shutdown stops all executors.
func (d *DFK) Shutdown() {
	for _, ex := range d.executors {
		ex.Shutdown()
	}
	d.started = false
}

// Submit schedules an app invocation. Arguments that are *Future
// values are awaited and replaced by their results before dispatch; if
// any fails, the task fails with ErrDependency without dispatching.
// Failed tasks are retried up to Config.Retries times, sleeping the
// configured exponential backoff (with jitter) between attempts; a
// task that exceeds Config.Timeout fails terminally with
// ErrTaskTimeout regardless of retries left.
func (d *DFK) Submit(appName string, args ...any) *Future {
	d.nextID++
	task := &Task{
		ID:         d.nextID,
		App:        appName,
		Status:     TaskPending,
		SubmitTime: d.env.Now(),
		m:          d.metricsFor(appName),
	}
	task.Span = d.obs.StartSpan("dfk", "task", task.Track(), 0,
		obs.Int("task", task.ID),
		obs.String("app", appName),
	)
	if task.m.submitted == nil {
		task.m.submitted = d.obs.Metrics().Counter("faas_tasks_submitted_total", obs.L("app", appName))
	}
	task.m.submitted.Inc()
	done := &task.done
	d.env.InitEvent(done, "task")
	task.fut = Future{task: task, done: done}
	fut := &task.fut

	if d.draining {
		task.Status = TaskFailed
		task.Err = fmt.Errorf("%w: DFK draining", ErrShutdown)
		task.EndTime = d.env.Now()
		d.finish(task)
		done.Fail(task.Err)
		return fut
	}
	app, ok := d.apps[appName]
	if !ok {
		task.Status = TaskFailed
		task.Err = fmt.Errorf("faas: unknown app %q", appName)
		task.EndTime = d.env.Now()
		d.finish(task)
		done.Fail(task.Err)
		return fut
	}
	task.Executor = app.Executor
	ex, ok := d.executors[app.Executor]
	if !ok {
		task.Status = TaskFailed
		task.Err = fmt.Errorf("%w: %q (app %q)", ErrNoExecutor, app.Executor, appName)
		task.EndTime = d.env.Now()
		d.finish(task)
		done.Fail(task.Err)
		return fut
	}
	if d.admission != nil {
		if shed, retryAfter := d.admission(task); shed {
			task.Status = TaskShed
			task.Err = &ShedError{App: appName, RetryAfter: retryAfter}
			task.EndTime = d.env.Now()
			d.obs.Metrics().Counter("faas_tasks_shed_total", obs.L("app", appName)).Inc()
			d.finish(task)
			done.Fail(task.Err)
			return fut
		}
	}
	d.emit(task)

	d.env.Spawn("dfk-launch", func(p *devent.Proc) {
		resolved, err := d.resolveArgs(p, args)
		if err != nil {
			task.Status = TaskFailed
			task.Err = fmt.Errorf("%w: %v", ErrDependency, err)
			task.EndTime = d.env.Now()
			d.finish(task)
			done.Fail(task.Err)
			return
		}
		deadline := time.Duration(-1)
		if d.cfg.Timeout > 0 {
			deadline = task.SubmitTime + d.cfg.Timeout
		}
		var result any
		timedOut := false
		for try := 0; ; try++ {
			task.Tries = try + 1
			task.Status = TaskLaunched
			task.DispatchTime = d.env.Now()
			d.emit(task)
			if try > 0 {
				d.obs.Metrics().Counter("faas_task_retries_total", obs.L("app", task.App)).Inc()
			}
			result, err = d.attempt(p, ex, task, app, resolved, deadline)
			if errors.Is(err, devent.ErrTimeout) {
				timedOut = true
				break
			}
			if err == nil || try >= d.cfg.Retries {
				break
			}
			if delay := d.backoff(try + 1); delay > 0 {
				if deadline >= 0 && d.env.Now()+delay >= deadline {
					// Sleeping out the backoff would blow the deadline;
					// fail now rather than waste a dispatch.
					timedOut = true
					break
				}
				p.Sleep(delay)
			}
		}
		if timedOut {
			task.Status = TaskTimedOut
			task.Err = fmt.Errorf("%w: %v elapsed after %d tries", ErrTaskTimeout, d.cfg.Timeout, task.Tries)
			task.EndTime = d.env.Now()
			d.obs.Metrics().Counter("faas_tasks_timed_out_total", obs.L("app", task.App)).Inc()
			d.finish(task)
			done.Fail(task.Err)
			return
		}
		if err != nil {
			task.Status = TaskFailed
			task.Err = err
			if task.EndTime < task.SubmitTime {
				task.EndTime = d.env.Now()
			}
			d.finish(task)
			done.Fail(err)
			return
		}
		task.Status = TaskDone
		d.finish(task)
		done.Fire(result)
	})
	return fut
}

// attempt makes one dispatch attempt, enforcing the deadline (negative
// = none). A deadline expiry surfaces as devent.ErrTimeout; the
// executor-side completion, if it arrives later, finds no waiter and
// the orphaned attempt is abandoned.
func (d *DFK) attempt(p *devent.Proc, ex Executor, task *Task, app App, args []any, deadline time.Duration) (any, error) {
	if d.dispatchFault != nil {
		if err := d.dispatchFault(task); err != nil {
			return nil, err
		}
	}
	ev := ex.Submit(task, app, args)
	if deadline < 0 {
		return p.Wait(ev)
	}
	return p.WaitTimeout(ev, deadline-d.env.Now())
}

// backoff returns the delay before retry number attempt (1-based):
// RetryBackoff doubled per attempt, capped at RetryBackoffMax, spread
// by the seeded jitter factor. Draw order is the deterministic event
// order of the simulation, so identical seeds give identical delays.
func (d *DFK) backoff(attempt int) time.Duration {
	base := d.cfg.RetryBackoff
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 20 {
		shift = 20 // past ~1M× the base the cap always applies
	}
	delay := base << uint(shift)
	if max := d.cfg.RetryBackoffMax; max > 0 && delay > max {
		delay = max
	}
	if j := d.cfg.RetryJitter; j > 0 {
		u := d.rng.Float64()
		delay = time.Duration(float64(delay) * (1 + j*(2*u-1)))
		if delay < 0 {
			delay = 0
		}
	}
	return delay
}

// resolveArgs waits for future-valued arguments and substitutes their
// results in a copy; without any it returns args itself.
func (d *DFK) resolveArgs(p *devent.Proc, args []any) ([]any, error) {
	var resolved []any
	for i, a := range args {
		fut, ok := a.(*Future)
		if !ok {
			continue
		}
		v, err := fut.Result(p)
		if err != nil {
			return nil, err
		}
		if resolved == nil {
			resolved = slices.Clone(args)
		}
		resolved[i] = v
	}
	if resolved == nil {
		return args, nil
	}
	return resolved, nil
}
