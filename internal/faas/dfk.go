package faas

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/devent"
	"repro/internal/obs"
)

// DFK is the DataFlowKernel: it owns the app registry and executors,
// dispatches tasks, retries failures with exponential backoff, and
// emits task spans and metrics to its collector.
type DFK struct {
	env       *devent.Env
	cfg       Config
	obs       *obs.Collector
	executors map[string]Executor
	apps      map[string]App
	metrics   map[string]*appMetrics
	ledger    Ledger
	nextID    int
	started   bool
	rng       *rand.Rand
	// dispatchFault, when set, is consulted before every dispatch
	// attempt; a non-nil error fails that attempt (retriable). Fault
	// injectors use it to model transient submit failures.
	dispatchFault func(*Task) error
	// admission, when set, is consulted once per Submit before the
	// task's launch is scheduled; a shed decision fails the task fast
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
		d.AddExecutor(ex) // not started yet, so it cannot fail
	}
	return d
}

// observed is implemented by executors that emit queue/run/worker
// spans and metrics into the DFK's collector.
type observed interface{ SetCollector(*obs.Collector) }

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

// Register adds an app to the registry; re-registering a name
// replaces it.
func (d *DFK) Register(app App) {
	d.apps[app.Name] = app
}

// Ledger returns the DFK's task ledger (never nil).
func (d *DFK) Ledger() *Ledger { return &d.ledger }

// appMetrics holds one app's per-task instruments. Each is looked up
// in the registry the first time it is used, so series are created in
// the same order as by a lookup per task.
type appMetrics struct {
	submitted *obs.Counter
	shed      *obs.Counter
	retries   *obs.Counter
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

// fail ends t now in a terminal failure status with err.
func (d *DFK) fail(t *Task, status TaskStatus, err error) {
	t.Status, t.Err, t.EndTime = status, err, d.env.Now()
	d.finish(t, nil)
}

// finish ends t in its terminal status: the ledger, the span end
// (carrying the fields monitoring needs to rebuild the record), the
// counters, and the future — fired with result when t is done, failed
// with t.Err otherwise. A task finished a second time is a ledger
// violation and changes nothing else.
func (d *DFK) finish(t *Task, result any) {
	if t.done.Fired() {
		d.ledger.twice = append(d.ledger.twice, t.ID)
		return
	}
	d.ledger.outcomes[t.Status]++
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
		t.done.Fire(result)
		return
	}
	t.done.Fail(t.Err)
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

// Submit schedules an app invocation. The argument values reach the
// app unchanged, but in a copy of the slice, so callers may reuse
// theirs. The future keeps one argument inline and copies a longer
// list into one fresh slice. A non-pointer argument, such as a
// time.Duration, is still boxed by the caller, since AppFunc takes
// its arguments as values of type any. Failed tasks are retried up to
// Config.Retries times, sleeping the configured exponential backoff
// (with jitter) between attempts.
func (d *DFK) Submit(appName string, args ...any) *Future {
	d.nextID++
	d.ledger.submitted++
	fut := &Future{task: Task{
		ID:         d.nextID,
		App:        appName,
		Status:     TaskPending,
		SubmitTime: d.env.Now(),
		m:          d.metricsFor(appName),
	}}
	task := &fut.task
	task.Span = d.obs.StartSpan("dfk", "task", task.Track(), 0,
		obs.Int("task", task.ID),
		obs.String("app", appName),
	)
	if task.m.submitted == nil {
		task.m.submitted = d.obs.Metrics().Counter("faas_tasks_submitted_total", obs.L("app", appName))
	}
	task.m.submitted.Inc()
	d.env.InitEvent(&task.done)

	app, ok := d.apps[appName]
	if !ok {
		d.fail(task, TaskFailed, fmt.Errorf("faas: unknown app %q", appName))
		return fut
	}
	task.Executor = app.Executor
	ex, ok := d.executors[app.Executor]
	if !ok {
		d.fail(task, TaskFailed, fmt.Errorf("%w: %q (app %q)", ErrNoExecutor, app.Executor, appName))
		return fut
	}
	if d.admission != nil {
		if shed, retryAfter := d.admission(task); shed {
			if task.m.shed == nil {
				task.m.shed = d.obs.Metrics().Counter("faas_tasks_shed_total", obs.L("app", appName))
			}
			task.m.shed.Inc()
			d.fail(task, TaskShed, &ShedError{App: appName, RetryAfter: retryAfter})
			return fut
		}
	}

	task.attempt.fn, task.attempt.inv.args = app.Fn, fut.keep(args)
	task.launch = launch{d: d, ex: ex}
	d.env.ScheduleStep(0, (*launchStep)(task))
	return fut
}

// launch is what a task's launch needs besides the task and its
// attempt slot: its DFK, its executor, and the event of the attempt it
// awaits. It lives in the Task, so launching allocates nothing.
type launch struct {
	d  *DFK
	ex Executor
	ev *devent.Event
}

// launchStep is a Task as the devent Step that launches it. Converting
// *Task to *launchStep schedules the task itself, so launch needs no
// pointer back to it.
type launchStep Task

// Step implements devent.Step, one state machine per task: attempt
// (the dispatch-fault check, then the executor's submission), await
// the attempt's event, sleep out the backoff after a failed attempt
// that has a retry left, and finish. It returns whenever the launch
// waits, on the event (Then) or the backoff (ScheduleStep, only for a
// positive delay), and resumes when the Step runs again. Once the task
// is terminal it drops the launch's references; the future keeps the
// arguments.
func (s *launchStep) Step() {
	t := (*Task)(s)
	l := &t.launch
	d := l.d
	for {
		var result any
		var err error
		if ev := l.ev; ev != nil {
			l.ev = nil
			result, err = ev.Value(), ev.Err()
		} else {
			t.Tries++
			t.Status = TaskLaunched
			if t.Tries > 1 {
				if t.m.retries == nil {
					t.m.retries = d.obs.Metrics().Counter("faas_task_retries_total", obs.L("app", t.App))
				}
				t.m.retries.Inc()
			}
			if d.dispatchFault != nil {
				err = d.dispatchFault(t)
			}
			if err == nil {
				ev := l.ex.Submit(t)
				if ev.Then(s) {
					l.ev = ev
					return
				}
				result, err = ev.Value(), ev.Err()
			}
		}
		if err == nil {
			t.Status = TaskDone
			d.finish(t, result)
			break
		}
		if t.Tries > d.cfg.Retries {
			d.fail(t, TaskFailed, err)
			break
		}
		if delay := d.backoff(t.Tries); delay > 0 {
			d.env.ScheduleStep(delay, s)
			return
		}
	}
	t.launch = launch{}
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
