// Package faas is a Parsl-like function-as-a-service runtime running
// on the devent simulation kernel.
//
// The shape mirrors Parsl (§2.2 of the paper): users register apps
// (functions), submit them through a DataFlowKernel that resolves
// future-valued arguments and retries failures, and execution happens
// on pluggable executors — a pilot-job HighThroughputExecutor with
// per-worker accelerator pinning (package htex) or a thread-pool
// executor. The paper's contribution, fine-grained GPU partitioning,
// enters through the executor configuration: the accelerator list may
// repeat devices and carry per-entry GPU percentages or name MIG
// instances by UUID (Listings 2 and 3).
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

// ErrDependency is returned for tasks whose future-valued arguments
// failed.
var ErrDependency = errors.New("faas: dependency failed")

// ErrShutdown is returned for tasks aborted by executor shutdown.
var ErrShutdown = errors.New("faas: executor shut down")

// ErrTaskTimeout is returned for tasks that exceed Config.Timeout
// between submission and completion; the deadline covers every retry,
// so a timed-out task is terminal and never re-dispatched.
var ErrTaskTimeout = errors.New("faas: task deadline exceeded")

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
	TaskTimedOut
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
	case TaskTimedOut:
		return "timedout"
	case TaskShed:
		return "shed"
	}
	return "unknown"
}

// Terminal reports whether the status is final: a task reaches exactly
// one of TaskDone, TaskFailed, TaskTimedOut, or TaskShed, exactly once
// — the invariant the chaos suite asserts under fault injection.
func (s TaskStatus) Terminal() bool {
	return s == TaskDone || s == TaskFailed || s == TaskTimedOut || s == TaskShed
}

// TerminalStatuses lists every terminal state, in declaration order.
// Controllers that derive backlog from the submitted/completed counter
// families must range over all of them, or tasks ending in an omitted
// state count as in-flight forever.
var TerminalStatuses = []TaskStatus{TaskDone, TaskFailed, TaskTimedOut, TaskShed}

// Task is the record of one app invocation.
type Task struct {
	ID       int
	App      string
	Executor string
	Status   TaskStatus
	Tries    int
	Err      error

	SubmitTime   time.Duration
	DispatchTime time.Duration
	StartTime    time.Duration
	EndTime      time.Duration
	Worker       string

	// Span is the task's root span in the DFK's collector: executors
	// parent their queue/run spans under it, so the whole causal chain
	// submit -> queue -> pickup -> kernels hangs off one ID.
	Span obs.SpanID

	track string
}

// Track names the trace lane the task's spans render on ("task-<ID>");
// the DFK and executors must agree on it so queue spans nest under the
// task. It is formatted once per task.
func (t *Task) Track() string {
	if t.track == "" {
		t.track = "task-" + strconv.Itoa(t.ID)
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
// container).
type Invocation struct {
	proc   *devent.Proc
	task   *Task
	args   []any
	env    map[string]string
	worker WorkerHandle
}

// NewInvocation assembles an invocation context; it is exported for
// executor implementations.
func NewInvocation(p *devent.Proc, task *Task, args []any, env map[string]string, w WorkerHandle) *Invocation {
	return &Invocation{proc: p, task: task, args: args, env: env, worker: w}
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

// Future is the handle returned by Submit; it fires when the task
// completes (with its return value) or fails.
type Future struct {
	task *Task
	done *devent.Event
}

// NewFuture pairs a task with its completion event (used by the DFK).
func NewFuture(task *Task, done *devent.Event) *Future {
	return &Future{task: task, done: done}
}

// Task returns the underlying task record. The DFK keeps no finished
// tasks, so the future is the caller's handle on it after completion.
func (f *Future) Task() *Task { return f.task }

// Event returns the completion event (for AnyOf/AllOf composition).
func (f *Future) Event() *devent.Event { return f.done }

// Done reports whether the task has completed.
func (f *Future) Done() bool { return f.done.Fired() }

// Result blocks until completion and returns the app's return value.
func (f *Future) Result(p *devent.Proc) (any, error) {
	return p.Wait(f.done)
}

// Executor runs tasks. Implementations live in subpackages.
type Executor interface {
	// Label is the registry key used by App.Executor.
	Label() string
	// Start launches the executor's infrastructure (blocks, workers).
	Start() error
	// Submit queues a task; the returned event fires with the app's
	// return value or fails with its error.
	Submit(task *Task, app App, args []any) *devent.Event
	// Shutdown stops workers; queued tasks fail with ErrShutdown.
	Shutdown()
	// Workers reports the current worker count (for tests/monitoring).
	Workers() int
}

// TaskEvent is emitted to monitoring hooks at each status change.
type TaskEvent struct {
	Task   *Task
	Status TaskStatus
	At     time.Duration
}

// Config carries DFK-wide settings (mirrors Parsl's Config object,
// Listing 1).
type Config struct {
	// RunDir is a label for the run (kept for config parity; the
	// simulator does not write logs to disk).
	RunDir string
	// Retries is how many times a failed task is retried before its
	// future fails (Parsl's retries=1 in Listing 1).
	Retries int
	// Timeout is the per-task deadline measured from submission across
	// all retries; when it elapses the task fails terminally with
	// ErrTaskTimeout. 0 disables deadlines.
	Timeout time.Duration
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

// String renders the config compactly.
func (c Config) String() string {
	return fmt.Sprintf("Config{RunDir:%q Retries:%d}", c.RunDir, c.Retries)
}
