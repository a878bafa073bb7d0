// Package faas is a Parsl-like function-as-a-service runtime running
// on the devent simulation kernel.
//
// The shape mirrors Parsl (§2.2 of the paper): users register apps
// (functions), submit them through a DataFlowKernel that dispatches
// each task and retries failures with backoff, and execution happens
// on a pilot-job HighThroughputExecutor with per-worker accelerator
// pinning (package htex). The paper's contribution, fine-grained GPU
// partitioning, enters through the executor configuration: the
// accelerator list may repeat devices and carry per-entry GPU
// percentages or name MIG instances by UUID (Listings 2 and 3).
package faas

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/devent"
	"repro/internal/obs"
	"repro/internal/simgpu"
)

// ErrNoExecutor is returned when a submitted app names an unknown
// executor label.
var ErrNoExecutor = errors.New("faas: no such executor")

// ErrShutdown is returned for tasks aborted by executor shutdown.
var ErrShutdown = errors.New("faas: executor shut down")

// ErrShed is returned for tasks rejected by admission control at
// Submit: the platform is over its SLO burn budget and sheds load
// before it queues, instead of letting every request blow the latency
// target. Shed tasks fail fast — they are never dispatched and never
// retried by the DFK; the client owns the retry, guided by the
// ShedError's RetryAfter hint.
var ErrShed = errors.New("faas: shed by admission control")

// ShedError is the concrete error a shed task fails with: it wraps
// ErrShed (errors.Is works) and carries retry-after semantics, the
// FaaS analogue of HTTP 429 + Retry-After.
type ShedError struct {
	// App is the submitted app name.
	App string
	// RetryAfter is the controller's hint for when pressure should
	// have eased (0 = no hint).
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("faas: shed by admission control: app %q, retry after %v", e.App, e.RetryAfter)
	}
	return fmt.Sprintf("faas: shed by admission control: app %q", e.App)
}

// Unwrap lets errors.Is(err, ErrShed) identify shed failures.
func (e *ShedError) Unwrap() error { return ErrShed }

// AppFunc is the body of an app. It runs inside a worker and receives
// the invocation context.
type AppFunc func(inv *Invocation) (any, error)

// App is a registered function (a Parsl "app").
type App struct {
	// Name is the registry key.
	Name string
	// Executor is the label of the executor that runs this app.
	Executor string
	// Fn is the function body.
	Fn AppFunc
}

// TaskStatus tracks a task through its lifecycle.
type TaskStatus int

// Task lifecycle states.
const (
	TaskPending TaskStatus = iota
	TaskLaunched
	TaskRunning
	TaskDone
	TaskFailed
	// TaskShed marks tasks rejected by admission control: terminal,
	// never dispatched. Distinct from TaskFailed so SLO monitors can
	// keep shed load out of the latency signal — shedding is how the
	// platform protects that signal, so counting sheds as latency
	// violations would lock the shed loop on permanently.
	TaskShed
)

// String implements fmt.Stringer.
func (s TaskStatus) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskLaunched:
		return "launched"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	case TaskFailed:
		return "failed"
	case TaskShed:
		return "shed"
	}
	return "unknown"
}

// Terminal reports whether the status is final: a task reaches exactly
// one of TaskDone, TaskFailed, or TaskShed, exactly once — the
// invariant the DFK's Ledger checks.
func (s TaskStatus) Terminal() bool {
	return s == TaskDone || s == TaskFailed || s == TaskShed
}

// terminalStatuses lists every terminal state, in declaration order.
var terminalStatuses = []TaskStatus{TaskDone, TaskFailed, TaskShed}

// Backlog reads an app's task counters from reg: how many of its tasks
// have not yet reached a terminal state, and how many were submitted.
// It sums the completed counter over every terminal status, so no
// finished task counts as in flight.
func Backlog(reg *obs.Registry, app string) (backlog int, submitted float64) {
	l := obs.L("app", app)
	submitted = reg.Counter("faas_tasks_submitted_total", l).Value()
	done := 0.0
	for _, st := range terminalStatuses {
		done += reg.Counter("faas_tasks_completed_total", l, obs.L("status", st.String())).Value()
	}
	return int(submitted - done), submitted
}

// Task is the record of one app invocation.
type Task struct {
	ID       int
	App      string
	Executor string
	Status   TaskStatus
	Tries    int
	Err      error

	SubmitTime time.Duration
	StartTime  time.Duration
	EndTime    time.Duration
	Worker     string

	// Span is the task's root span in the DFK's collector: executors
	// parent their queue/run spans under it, so the whole causal chain
	// submit -> queue -> pickup -> kernels hangs off one ID.
	Span obs.SpanID

	track string
	// The DFK's task keeps its completion event, app instruments,
	// launch state and attempt slot in the same allocation as its
	// future.
	done    devent.Event
	m       *appMetrics
	launch  launch
	attempt Attempt
}

// Track names the trace lane the task's spans render on ("task-<ID>");
// the DFK and executors must agree on it so queue spans nest under the
// task. It is formatted once per task, into one allocation.
func (t *Task) Track() string {
	if t.track == "" {
		b := append(make([]byte, 0, 32), "task-"...)
		t.track = string(strconv.AppendInt(b, int64(t.ID), 10))
	}
	return t.track
}

// QueueDelay is the time from submission to execution start.
func (t *Task) QueueDelay() time.Duration { return t.StartTime - t.SubmitTime }

// RunTime is the execution duration.
func (t *Task) RunTime() time.Duration { return t.EndTime - t.StartTime }

// Invocation is the context an app body receives: the simulated
// process, resolved arguments, the worker's accelerator binding, and
// per-worker state that persists across invocations (the warm
// container). It lives in the attempt record the app runs on.
type Invocation struct {
	proc   *devent.Proc
	task   *Task
	args   []any
	env    map[string]string
	worker WorkerHandle
}

// Proc returns the simulated process running the invocation.
func (inv *Invocation) Proc() *devent.Proc { return inv.proc }

// Task returns the task record.
func (inv *Invocation) Task() *Task { return inv.task }

// Args returns the resolved positional arguments.
func (inv *Invocation) Args() []any { return inv.args }

// Arg returns argument i (nil when out of range).
func (inv *Invocation) Arg(i int) any {
	if i < 0 || i >= len(inv.args) {
		return nil
	}
	return inv.args[i]
}

// Env returns the worker's environment (CUDA_VISIBLE_DEVICES etc.).
func (inv *Invocation) Env() map[string]string { return inv.env }

// Compute blocks for d of simulated CPU work.
func (inv *Invocation) Compute(d time.Duration) { inv.proc.Sleep(d) }

// GPU returns the worker's GPU context, creating it on first use (the
// cold-start component "GPU context initialization", §6). Apps on
// workers without an accelerator binding get an error.
func (inv *Invocation) GPU() (*simgpu.Context, error) {
	if inv.worker == nil {
		return nil, errors.New("faas: invocation has no worker GPU binding")
	}
	return inv.worker.GPUContext(inv.proc)
}

// State returns the worker-local cache that survives across
// invocations on the same worker (model weights, engines, ...).
func (inv *Invocation) State() map[string]any {
	if inv.worker == nil {
		return map[string]any{}
	}
	return inv.worker.State()
}

// WorkerName identifies the executing worker (for traces).
func (inv *Invocation) WorkerName() string {
	if inv.worker == nil {
		return ""
	}
	return inv.worker.Name()
}

// WorkerHandle is what executors expose to invocations: lazy GPU
// context creation and warm per-worker state.
type WorkerHandle interface {
	Name() string
	GPUContext(p *devent.Proc) (*simgpu.Context, error)
	State() map[string]any
}

// Attempt is one dispatch attempt of a task as its executor sees it:
// the app function and the invocation it runs on, the executor's queue
// span, and the event the attempt completes.
//
// Every Task holds one Attempt, its slot, so an attempt allocates
// nothing. The DFK fills the slot's function and arguments at Submit.
// From each Executor.Submit, which takes the record from NextAttempt,
// until the record's event fires, the executor owns the record. It
// binds the record to the proc that runs the app (Bind) and releases
// it when the app returns (Release); in between the record is held.
// The attempt's event normally fires after the release, so the DFK
// retries on a free slot. It fires before only when the executor fails
// the attempt while the app runs on as an orphan (htex's KillWorker);
// a retry then gets a fresh record, because clearing the slot would
// repoint the orphan's Invocation at the retry's worker.
type Attempt struct {
	fn AppFunc
	// QueueSpan is the executor's queue span: it nests under the task's
	// root span and ends when a worker picks the attempt.
	QueueSpan obs.SpanID
	done      devent.Event
	inv       Invocation
}

// NextAttempt returns the record of the task's next attempt, its event
// not yet initialised: the task's slot, cleared, or a fresh record with
// the same function and arguments while an app still holds the slot.
func (t *Task) NextAttempt() *Attempt {
	fn, args := t.attempt.fn, t.attempt.inv.args
	a := &t.attempt
	if a.inv.proc != nil { // held: an orphaned app runs on the slot
		a = new(Attempt)
	}
	*a = Attempt{fn: fn, inv: Invocation{task: t, args: args}}
	return a
}

// Task returns the task the attempt belongs to.
func (a *Attempt) Task() *Task { return a.inv.task }

// Event returns the attempt's completion event.
func (a *Attempt) Event() *devent.Event { return &a.done }

// Bind completes the attempt's invocation with the proc that will run
// the app and the worker's binding. The record is held from now until
// Release.
func (a *Attempt) Bind(p *devent.Proc, env map[string]string, w WorkerHandle) {
	a.inv.proc, a.inv.env, a.inv.worker = p, env, w
}

// Run calls the app on the bound invocation, on the bound proc.
func (a *Attempt) Run() (any, error) { return a.fn(&a.inv) }

// Release unbinds the invocation once the app has returned, freeing
// the record for the task's next attempt.
func (a *Attempt) Release() {
	a.inv.proc, a.inv.env, a.inv.worker = nil, nil, nil
}

// Future is the handle returned by Submit; it fires when the task
// completes (with its return value) or fails. It holds the task, and
// with it the task's attempt slot, and the task's argument when there
// is only one, so a submission allocates one object for all of them.
// It keeps the argument values for as long as the caller keeps it.
type Future struct {
	task Task
	argv [1]any
}

// keep copies args into the future: inline when they fit, or else into
// one fresh slice. It never retains the caller's slice, so a variadic
// call's slice stays on the caller's stack.
func (f *Future) keep(args []any) []any {
	if len(args) > len(f.argv) {
		return append([]any(nil), args...)
	}
	n := copy(f.argv[:], args)
	return f.argv[:n:n]
}

// Task returns the underlying task record. The DFK keeps no finished
// tasks, so the future is the caller's handle on it after completion.
func (f *Future) Task() *Task { return &f.task }

// Event returns the task's completion event, to wait on or attach
// OnFire callbacks to.
func (f *Future) Event() *devent.Event { return &f.task.done }

// Done reports whether the task has completed.
func (f *Future) Done() bool { return f.task.done.Fired() }

// Result blocks until completion and returns the app's return value.
func (f *Future) Result(p *devent.Proc) (any, error) {
	return p.Wait(&f.task.done)
}

// Executor runs tasks. Implementations live in subpackages.
type Executor interface {
	// Label is the registry key used by App.Executor.
	Label() string
	// Start launches the executor's infrastructure (blocks, workers).
	Start() error
	// Submit queues one attempt of task. An executor that runs the app
	// takes the attempt's record, which carries the app function and
	// arguments, from task.NextAttempt and returns the record's event.
	// The returned event fires with the app's return value or fails
	// with its error.
	Submit(task *Task) *devent.Event
}

// Config carries DFK-wide settings (mirrors Parsl's Config object,
// Listing 1).
type Config struct {
	// Retries is how many times a failed task is retried before its
	// future fails (Parsl's retries=1 in Listing 1).
	Retries int
	// RetryBackoff is the delay before retry n: it doubles with each
	// attempt (RetryBackoff << (n-1)) up to RetryBackoffMax. 0 keeps
	// the seed behavior of immediate re-dispatch.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential backoff (0 = uncapped).
	RetryBackoffMax time.Duration
	// RetryJitter spreads backoff delays by a uniform factor in
	// [1-RetryJitter, 1+RetryJitter], drawn from the DFK's seeded RNG
	// so runs stay deterministic. 0 disables jitter.
	RetryJitter float64
	// Seed seeds the DFK's RNG (retry jitter); 0 means seed 1.
	Seed int64
	// Collector receives task spans and metrics. Leave nil to have
	// NewDFK create one — the DFK always has a collector, so
	// monitoring (which derives its records from span events) works
	// without further configuration.
	Collector *obs.Collector
}
