// Package htex implements the HighThroughputExecutor: Parsl's
// pilot-job executor, extended per the paper's §4 with fine-grained
// GPU partitioning. Workers are pinned one-to-one to entries of
// AvailableAccelerators; listing a GPU more than once multiplexes it,
// and each entry may carry a GPU percentage (MPS) or be a MIG UUID.
// The binding is applied as environment variables before the worker
// starts, exactly the mechanism the paper adds to Parsl (Listing 2).
package htex

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/faas/provider"
	"repro/internal/gpuctl"
	"repro/internal/obs"
	"repro/internal/simgpu"
)

// Config mirrors the paper's extended HighThroughputExecutor
// configuration (Listings 1–3).
type Config struct {
	// Label names the executor ("cpu", "gpu").
	Label string
	// MaxWorkers is the per-node worker count when no accelerators are
	// configured (CPU executor).
	MaxWorkers int
	// AvailableAccelerators lists accelerator references, one worker
	// per entry: device indices ("0"), repeated indices to multiplex,
	// or MIG UUIDs. (Listing 2: ['1','2','4']; Listing 3 uses MIG
	// UUIDs.)
	AvailableAccelerators []string
	// GPUPercentages is the paper's extension: a per-entry MPS GPU
	// percentage aligned with AvailableAccelerators (Listing 2:
	// [50, 25, 30]). Empty means no caps; otherwise the lengths must
	// match.
	GPUPercentages []int
	// WorkerInit is the function-initialization cold-start component
	// (§6: download, decompression, interpreter start).
	WorkerInit time.Duration
	// Provider supplies nodes; Blocks is how many to request
	// (default 1).
	Provider provider.Provider
	Blocks   int
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if c.Label == "" {
		return fmt.Errorf("htex: empty label")
	}
	if c.Provider == nil {
		return fmt.Errorf("htex: executor %q needs a provider", c.Label)
	}
	if len(c.GPUPercentages) > 0 && len(c.GPUPercentages) != len(c.AvailableAccelerators) {
		return fmt.Errorf("htex: executor %q: %d GPU percentages for %d accelerators",
			c.Label, len(c.GPUPercentages), len(c.AvailableAccelerators))
	}
	for _, pct := range c.GPUPercentages {
		if pct < 0 || pct > 100 {
			return fmt.Errorf("htex: GPU percentage %d out of range", pct)
		}
	}
	if len(c.AvailableAccelerators) == 0 && c.MaxWorkers <= 0 {
		return fmt.Errorf("htex: executor %q has no workers", c.Label)
	}
	return nil
}

// Bindings derives the per-worker accelerator bindings — the env-var
// assembly the paper adds to Parsl's executor.
func (c Config) Bindings() []gpuctl.Binding {
	out := make([]gpuctl.Binding, len(c.AvailableAccelerators))
	for i, acc := range c.AvailableAccelerators {
		b := gpuctl.Binding{Accelerator: acc}
		if len(c.GPUPercentages) > 0 {
			b.GPUPercent = c.GPUPercentages[i]
		}
		out[i] = b
	}
	return out
}

// ErrWorkerLost fails a task whose worker crashed mid-execution; the
// DFK's retry policy re-dispatches it to a surviving worker.
var ErrWorkerLost = errors.New("htex: worker lost")

// ErrNoWorkers fails queued and new submissions when every worker has
// crashed (or been blacklisted) and no restart is pending — without it
// the queue would strand tasks forever.
var ErrNoWorkers = errors.New("htex: no live workers")

// submission is one dispatch attempt of a task. It owns the attempt's
// done event (Submit's) and invocation, so a pick allocates nothing:
// Submit builds the invocation with the task and its arguments, and
// the picking worker's proc completes it with itself and the binding
// when it starts the app. A submission is never reused: a killed
// worker's orphaned app still holds it.
type submission struct {
	task  *faas.Task
	fn    faas.AppFunc
	qspan obs.SpanID
	done  devent.Event
	inv   faas.Invocation
}

// blockInfo tracks one provisioned block: the node it runs on and its
// worker pool, so scale-in can retire the block as a unit and return
// the node to the provider. spawned lists every worker started in the
// block, respawns included, in spawn order.
type blockInfo struct {
	id      int
	node    *gpuctl.Node
	workers []*worker
	spawned []*worker
}

// HTEX is the executor. Create with New, register with a DFK, Start
// to provision workers.
type HTEX struct {
	env     *devent.Env
	cfg     Config
	queue   *devent.Queue[*submission]
	workers []*worker
	// spawned lists every worker started since the last shutdown, in
	// spawn order: the workers ShutdownAndWait waits for.
	spawned []*worker
	started bool
	gen     int

	provisioned bool
	// pendingRestarts counts crashed workers whose respawn timer is
	// running; while it is non-zero the queue is not stranded.
	pendingRestarts int
	crashes         map[string]int
	blacklisted     map[string]bool

	// blocks tracks live provisioned blocks for the scale-out/in path;
	// nextBlock numbers them (reset on Start so a fresh worker set gets
	// block0.. again, as before the scaling API existed).
	blocks    []*blockInfo
	nextBlock int
	// scaledToZero marks a deliberate ScaleIn to zero workers: unlike a
	// crash of the last worker, submissions keep queueing, waiting for
	// the next ScaleOut — the scale-to-zero economics the autoscaler
	// depends on.
	scaledToZero bool

	obs        *obs.Collector
	gWorkers   *obs.Gauge
	gBlocks    *obs.Gauge
	gBlacklist *obs.Gauge
	cCold      *obs.Counter
	cKilled    *obs.Counter
	cRestarts  *obs.Counter
	cWRestarts *obs.Counter
	cPicked    *obs.Counter
	cScaleOut  *obs.Counter
	cScaleIn   *obs.Counter
}

// New creates the executor; Validate errors surface here.
func New(env *devent.Env, cfg Config) (*HTEX, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 1
	}
	return &HTEX{
		env:         env,
		cfg:         cfg,
		queue:       devent.NewQueue[*submission](env),
		crashes:     make(map[string]int),
		blacklisted: make(map[string]bool),
	}, nil
}

// Label implements faas.Executor.
func (h *HTEX) Label() string { return h.cfg.Label }

// Config returns the executor configuration.
func (h *HTEX) Config() Config { return h.cfg }

// SetCollector wires the DFK's collector: worker-lifecycle and task
// spans plus executor metrics flow into it. Instruments are resolved
// once here so the hot paths pay only nil-safe method calls.
func (h *HTEX) SetCollector(c *obs.Collector) {
	h.obs = c
	m := c.Metrics()
	l := obs.L("executor", h.cfg.Label)
	h.gWorkers = m.Gauge("htex_workers_live", l)
	h.gBlocks = m.Gauge("htex_blocks_live", l)
	h.gBlacklist = m.Gauge("htex_blacklist_size", l)
	h.cCold = m.Counter("htex_cold_starts_total", l)
	h.cKilled = m.Counter("htex_workers_killed_total", l)
	h.cRestarts = m.Counter("htex_restarts_total", l)
	h.cWRestarts = m.Counter("htex_worker_restarts_total", l)
	h.cPicked = m.Counter("htex_tasks_picked_total", l)
	h.cScaleOut = m.Counter("htex_scale_out_total", l)
	h.cScaleIn = m.Counter("htex_scale_in_total", l)
}

// Workers reports the current worker count.
func (h *HTEX) Workers() int { return len(h.workers) }

// Start implements faas.Executor: provision blocks from the provider
// and launch one worker proc per accelerator entry (or MaxWorkers CPU
// workers) per block.
func (h *HTEX) Start() error {
	if h.started {
		return nil
	}
	h.started = true
	h.gen++
	gen := h.gen
	// A fresh start (including a repartition Restart) wipes crash
	// history: the new worker set gets a clean slate.
	if len(h.blacklisted) > 0 {
		h.gBlacklist.Set(0)
	}
	h.crashes = make(map[string]int)
	h.blacklisted = make(map[string]bool)
	h.blocks = nil
	h.nextBlock = 0
	h.scaledToZero = false
	h.env.Spawn("htex-start:"+h.cfg.Label, func(p *devent.Proc) {
		v, err := p.Wait(h.cfg.Provider.Provision(h.cfg.Blocks))
		if err != nil {
			h.env.Fail(fmt.Errorf("htex %q: provision: %w", h.cfg.Label, err))
			return
		}
		nodes := v.([]*gpuctl.Node)
		if h.gen != gen || !h.started {
			// Shut down while provisioning: hand the grant straight
			// back so the pool does not leak.
			h.cfg.Provider.Release(nodes)
			return
		}
		for _, node := range nodes {
			h.spawnBlock(node)
		}
		h.provisioned = true
	})
	return nil
}

// spawnBlock launches one block's worker pool on a provisioned node:
// one worker per accelerator binding (or MaxWorkers CPU workers).
func (h *HTEX) spawnBlock(node *gpuctl.Node) *blockInfo {
	b := &blockInfo{id: h.nextBlock, node: node}
	h.nextBlock++
	bindings := h.cfg.Bindings()
	n := len(bindings)
	if n == 0 {
		n = h.cfg.MaxWorkers
	}
	for wi := 0; wi < n; wi++ {
		w := h.newWorker(fmt.Sprintf("%s/block%d/worker%d", h.cfg.Label, b.id, wi), node)
		if len(bindings) > 0 {
			w.binding = bindings[wi]
			w.env = bindings[wi].Environ()
		}
		h.workers = append(h.workers, w)
		b.workers = append(b.workers, w)
		h.launch(b, w)
	}
	h.blocks = append(h.blocks, b)
	h.gBlocks.Set(float64(len(h.blocks)))
	h.scaledToZero = false
	return b
}

// Blocks reports how many provisioned blocks are live.
func (h *HTEX) Blocks() int { return len(h.blocks) }

// ScaleOut provisions n additional blocks from the provider and
// launches their worker pools. It blocks through the provider's grant
// delay; a failed grant (pool exhausted) returns the error without
// touching the running pool.
func (h *HTEX) ScaleOut(p *devent.Proc, n int) error {
	if n <= 0 {
		return fmt.Errorf("htex %q: scale-out of %d blocks", h.cfg.Label, n)
	}
	if !h.started {
		return fmt.Errorf("htex %q: scale-out before Start: %w", h.cfg.Label, faas.ErrShutdown)
	}
	gen := h.gen
	v, err := p.Wait(h.cfg.Provider.Provision(n))
	if err != nil {
		return fmt.Errorf("htex %q: scale-out: %w", h.cfg.Label, err)
	}
	nodes := v.([]*gpuctl.Node)
	if h.gen != gen || !h.started {
		h.cfg.Provider.Release(nodes)
		return fmt.Errorf("htex %q: restarted during scale-out: %w", h.cfg.Label, faas.ErrShutdown)
	}
	for _, node := range nodes {
		h.spawnBlock(node)
	}
	h.cScaleOut.Add(float64(n))
	return nil
}

// ScaleIn gracefully retires the n most recently added blocks (LIFO):
// each block's workers finish their in-flight task, exit cleanly —
// no crash accounting, no restart timers — and the block's node goes
// back to the provider, immediately grantable by the next ScaleOut.
// Retiring every block is allowed (scale-to-zero): submissions keep
// queueing until a later ScaleOut, they are not failed. Returns how
// many blocks were actually retired (capped at the live count).
func (h *HTEX) ScaleIn(p *devent.Proc, n int) (int, error) {
	if !h.started {
		return 0, fmt.Errorf("htex %q: scale-in before Start: %w", h.cfg.Label, faas.ErrShutdown)
	}
	if n > len(h.blocks) {
		n = len(h.blocks)
	}
	if n <= 0 {
		return 0, nil
	}
	gen := h.gen
	retire := h.blocks[len(h.blocks)-n:]
	h.blocks = h.blocks[:len(h.blocks)-n]
	if len(h.blocks) == 0 {
		h.scaledToZero = true
	}
	h.gBlocks.Set(float64(len(h.blocks)))
	for _, b := range retire {
		for _, w := range b.workers {
			w.retired = true
			w.halt()
		}
	}
	// Wait for every retired worker to drain its in-flight task and
	// exit (destroying its GPU context) before returning the nodes.
	for _, b := range retire {
		for _, w := range b.spawned {
			p.Wait(&w.exited)
		}
	}
	if h.gen != gen || !h.started {
		return 0, fmt.Errorf("htex %q: restarted during scale-in: %w", h.cfg.Label, faas.ErrShutdown)
	}
	nodes := make([]*gpuctl.Node, 0, n)
	for _, b := range retire {
		nodes = append(nodes, b.node)
	}
	if err := h.cfg.Provider.Release(nodes); err != nil {
		return n, fmt.Errorf("htex %q: scale-in release: %w", h.cfg.Label, err)
	}
	h.cScaleIn.Add(float64(n))
	return n, nil
}

// launch starts w in block b: it creates the worker's proc, parked
// until its first app, and queues the loop's boot phase in the slot
// where a spawned proc would start.
func (h *HTEX) launch(b *blockInfo, w *worker) {
	w.p = h.env.NewProc(w.name, func(p *devent.Proc) { h.workerProc(p, w) })
	w.p.SetDaemon(true) // a worker parked between apps is no deadlock
	h.env.ScheduleStep(0, (*workerLoop)(w))
	h.spawned = append(h.spawned, w)
	b.spawned = append(b.spawned, w)
}

// workerPhase is where a worker's loop resumes when its Step runs.
type workerPhase uint8

const (
	// booting: the worker's first instant, a cold start.
	booting workerPhase = iota
	// initing: WorkerInit (function initialization, §6) has elapsed.
	initing
	// starting: the picked app's first instant.
	starting
	// finishing: the instant after the app returned.
	finishing
)

// workerLoop is a worker as the devent Step and queue Receiver that run
// its loop: Parsl's worker loop around the app call, as a state
// machine in scheduler context. Only the app runs on the worker's proc.
// Each phase is queued in the slot where the proc-based loop it
// replaces was resumed (its start, its WorkerInit sleep, its two
// same-instant yields around the app, its queue wakeup), so the
// dispatch order, and with it every artifact, is the proc loop's.
type workerLoop worker

// Step implements devent.Step: it runs the worker's current phase.
// Boot opens the worker's lifecycle span (init and run spans nest
// under it) and sleeps out WorkerInit; starting resumes the proc into
// the picked app; finishing delivers the app's outcome. Boot, init and
// finish then pick the next task (workerStep).
func (l *workerLoop) Step() {
	w := (*worker)(l)
	h := w.h
	switch w.phase {
	case booting:
		w.span = h.obs.StartSpan("htex", "worker", w.name, 0,
			obs.String("executor", h.cfg.Label),
			obs.String("accelerator", w.binding.Accelerator),
			obs.Int("gpu_pct", w.binding.GPUPercent))
		// Daemon lifecycle: stays open until drain, so pin it out of the
		// streaming flush frontier (it would otherwise block every span
		// recorded after it for the whole run).
		h.obs.PinSpan(w.span)
		h.gWorkers.Add(1)
		h.cCold.Inc()
		if init := h.cfg.WorkerInit; init > 0 {
			w.phase = initing
			h.env.ScheduleStep(init, l)
			return
		}
	case initing:
		now := h.env.Now()
		h.obs.AddSpan("htex", "init", w.name, w.span, now-h.cfg.WorkerInit, now)
	case starting:
		w.p.Resume()
		return
	case finishing:
		h.finish(w)
	}
	h.workerStep(w)
}

// Receive implements devent.Receiver: the queue hands the idle worker
// a task, or ok is false because halt withdrew the receive (kill,
// retire or shutdown), and the worker leaves the pool.
func (l *workerLoop) Receive(sub *submission, ok bool) {
	w := (*worker)(l)
	h := w.h
	if ok {
		h.pick(w, sub)
		return
	}
	if w.killed {
		h.workerCrashed(w)
	} else if w.retired {
		h.workerRetired(w)
	}
	h.exit(w)
}

// workerStep picks the worker's next task, or registers it on the
// queue, where Receive takes the task or the stop. A retired worker
// leaves the pool instead, and a stopped one withdraws at once.
func (h *HTEX) workerStep(w *worker) {
	// Retirement is checked before the queue: Then takes queued work
	// first, so a retired worker would otherwise keep picking tasks as
	// long as a backlog exists.
	if w.retired {
		h.workerRetired(w)
		h.exit(w)
		return
	}
	if sub, ok := h.queue.Then((*workerLoop)(w)); ok {
		h.pick(w, sub)
	} else if w.stopped {
		h.queue.Withdraw((*workerLoop)(w))
	}
}

// pick does a picked task's bookkeeping and queues the starting phase,
// which runs the app.
func (h *HTEX) pick(w *worker, sub *submission) {
	t := sub.task
	t.Status = faas.TaskRunning
	t.StartTime = h.env.Now()
	t.Worker = w.name
	h.obs.EndSpan(sub.qspan, obs.String("worker", w.name))
	w.runSpan = h.obs.StartSpan("htex", "run", w.name, t.Span,
		obs.Int("task", t.ID), obs.String("app", t.App),
		obs.String("accelerator", w.binding.Accelerator),
		obs.Int("gpu_pct", w.binding.GPUPercent))
	if w.gpu != nil && !w.gpu.Destroyed() {
		w.gpu.SetTraceParent(w.runSpan)
	}
	h.cPicked.Inc()
	w.sub = sub
	if w.killed {
		// Killed before this pick (during init, or after the last task
		// finished but before the worker picked again): lost at once.
		h.lose(w, sub)
	}
	// The app starts, and its outcome is delivered, in a later step at
	// the same instant: items already due run first.
	w.phase = starting
	h.env.ScheduleStep(0, (*workerLoop)(w))
}

// workerProc is the worker's proc: each time the starting phase
// resumes it, it runs the picked app, hands the outcome to the
// finishing phase, and parks as an idle daemon. It returns when
// resumed with no app to run (the worker left the pool idle, see
// exit), or once the app of a killed worker returns: the orphan
// touches nothing else, since lose has already failed the attempt and
// taken the worker out of the pool. Nothing is deferred: a proc still
// parked when its Env closes unwinds without touching spans, gauges or
// the GPU.
func (h *HTEX) workerProc(p *devent.Proc, w *worker) {
	for sub := w.sub; sub != nil; sub = w.sub {
		sub.inv = faas.NewInvocation(p, sub.task, sub.inv.Args(), w.env, w)
		result, err := sub.fn(&sub.inv)
		if w.killed {
			return
		}
		w.sub = nil
		w.fin, w.result, w.err = sub, result, err
		w.phase = finishing
		h.env.ScheduleStep(0, (*workerLoop)(w))
		p.Park()
	}
}

// finish delivers the outcome of the app that returned last.
func (h *HTEX) finish(w *worker) {
	sub, result, err := w.fin, w.result, w.err
	w.fin, w.result, w.err = nil, nil, nil
	sub.task.EndTime = h.env.Now()
	if err != nil {
		h.obs.EndSpan(w.runSpan,
			obs.String("status", "failed"),
			obs.String("error", err.Error()))
		sub.done.Fail(err)
	} else {
		h.obs.EndSpan(w.runSpan, obs.String("status", "done"))
		sub.done.Fire(result)
	}
}

// exit takes the worker out of the live count, ends its lifecycle span,
// destroys its GPU context and fires its exit event. An idle worker's
// proc is resumed with no app to run, so it returns; a killed worker
// with an app in flight (sub still set) leaves it to return after the
// orphaned app.
func (h *HTEX) exit(w *worker) {
	h.gWorkers.Add(-1)
	h.obs.EndSpan(w.span)
	w.releaseGPU()
	w.exited.Fire(nil)
	if w.sub == nil {
		w.p.Resume()
	}
}

// lose fails a killed worker's attempt with ErrWorkerLost, so the DFK
// can retry it elsewhere, aborts its kernels by destroying the GPU
// context, and takes the worker out of the pool. The worker's proc
// finishes the app as an orphan that touches nothing else.
func (h *HTEX) lose(w *worker, sub *submission) {
	sub.task.EndTime = h.env.Now()
	h.obs.EndSpan(w.runSpan, obs.String("status", "lost"))
	w.releaseGPU()
	sub.done.Fail(fmt.Errorf("%w: %s", ErrWorkerLost, w.name))
	h.workerCrashed(w)
	h.exit(w)
}

// KillWorker simulates a worker-process crash (OOM kill, node fault):
// its in-flight task fails with ErrWorkerLost (retriable), its GPU
// context is destroyed, and the worker leaves the pool. It reports
// whether a worker with that name existed.
func (h *HTEX) KillWorker(name string) bool {
	for _, w := range h.workers {
		if w.name == name && !w.killed {
			w.killed = true
			w.halt()
			if sub := w.sub; sub != nil {
				// Mid-app: the attempt is lost at once, and the app
				// runs on as the orphan.
				h.env.Schedule(0, func() { h.lose(w, sub) })
			}
			return true
		}
	}
	return false
}

// WorkerNames lists the live workers.
func (h *HTEX) WorkerNames() []string {
	names := make([]string, 0, len(h.workers))
	for _, w := range h.workers {
		names = append(names, w.name)
	}
	return names
}

func (h *HTEX) removeWorker(w *worker) {
	for i, x := range h.workers {
		if x == w {
			h.workers = append(h.workers[:i], h.workers[i+1:]...)
			return
		}
	}
}

// workerRetired is the clean exit path for scale-in: the worker
// leaves the pool with no crash accounting and no restart timer.
func (h *HTEX) workerRetired(w *worker) {
	h.removeWorker(w)
}

// The worker-recovery policy: a crashed worker's slot restarts after
// restartBackoff, doubled per crash of that slot (at most 4 s), and is
// blacklisted — never restarted again — at its blacklistAfter-th crash.
const (
	restartBackoff = 500 * time.Millisecond
	blacklistAfter = 5
)

// workerCrashed is the single exit path for killed workers (idle or
// mid-task): it counts the crash against the worker's slot and either
// blacklists the slot, checking the queue for stranding, or schedules
// its restart.
func (h *HTEX) workerCrashed(w *worker) {
	h.removeWorker(w)
	h.cKilled.Inc()
	if !h.started {
		return
	}
	h.crashes[w.name]++
	n := h.crashes[w.name]
	if n >= blacklistAfter {
		if !h.blacklisted[w.name] {
			h.blacklisted[w.name] = true
			h.gBlacklist.Add(1)
		}
		h.failIfStranded()
		return
	}
	delay := restartBackoff << (n - 1)
	h.pendingRestarts++
	gen := h.gen
	h.env.Schedule(delay, func() {
		h.pendingRestarts--
		if h.gen != gen || !h.started || h.blacklisted[w.name] {
			h.failIfStranded()
			return
		}
		h.respawn(w)
	})
}

// respawn replaces a crashed worker: same slot name, node, and
// accelerator binding, but fresh warm state — the restarted process
// re-pays every cold-start component, exactly as a real pilot-job
// restart would.
func (h *HTEX) respawn(old *worker) {
	// The slot's block must still be live: when ScaleIn retired it
	// while the restart timer ran, the node is back with the provider
	// and the slot must stay dead.
	var blk *blockInfo
	slot := -1
	for _, b := range h.blocks {
		for i, x := range b.workers {
			if x == old {
				blk, slot = b, i
				break
			}
		}
	}
	if blk == nil {
		h.failIfStranded()
		return
	}
	w := h.newWorker(old.name, old.node)
	w.binding, w.env = old.binding, old.env
	h.workers = append(h.workers, w)
	blk.workers[slot] = w
	h.cWRestarts.Inc()
	h.launch(blk, w)
}

// stranded reports whether queued work can never run: the started
// executor's pool was provisioned, and no worker is alive or coming
// back. Scale-to-zero is not stranding: work waits for a ScaleOut.
func (h *HTEX) stranded() bool {
	return h.provisioned && len(h.workers) == 0 && h.pendingRestarts == 0 && !h.scaledToZero
}

// failIfStranded drains the queue with ErrNoWorkers when no worker is
// alive and none is coming back — queued submissions would otherwise
// never complete, violating the exactly-one-terminal-state invariant.
func (h *HTEX) failIfStranded() {
	if !h.stranded() {
		return
	}
	for {
		sub, ok := h.queue.TryGet()
		if !ok {
			return
		}
		h.obs.EndSpan(sub.qspan, obs.String("status", "no-workers"))
		sub.done.Fail(fmt.Errorf("%w: executor %q", ErrNoWorkers, h.cfg.Label))
	}
}

// Submit implements faas.Executor.
func (h *HTEX) Submit(task *faas.Task, fn faas.AppFunc, args []any) *devent.Event {
	sub := &submission{task: task, fn: fn, inv: faas.NewInvocation(nil, task, args, nil, nil)}
	done := &sub.done
	h.env.InitEvent(done, "htex-task")
	if !h.started {
		done.Fail(faas.ErrShutdown)
		return done
	}
	if h.stranded() {
		done.Fail(fmt.Errorf("%w: executor %q", ErrNoWorkers, h.cfg.Label))
		return done
	}
	// The queue span shares the task's track, nesting under its root
	// span; the picking worker ends it.
	sub.qspan = h.obs.StartSpan("htex", "queue", task.Track(), task.Span,
		obs.String("executor", h.cfg.Label))
	h.queue.Put(sub)
	return done
}

// Shutdown stops the executor: running tasks finish, idle workers
// exit in pool order and destroy their GPU contexts, queued
// submissions fail with ErrShutdown.
func (h *HTEX) Shutdown() {
	if !h.started {
		return
	}
	h.started = false
	h.provisioned = false
	for _, w := range h.workers {
		w.halt()
	}
	for {
		sub, ok := h.queue.TryGet()
		if !ok {
			break
		}
		h.obs.EndSpan(sub.qspan, obs.String("status", "shutdown"))
		sub.done.Fail(faas.ErrShutdown)
	}
	h.workers = nil
	// Hand every live block's node back so restart/scale cycles cannot
	// exhaust a finite provider pool (best-effort: the pilot job is
	// going away regardless).
	if len(h.blocks) > 0 {
		nodes := make([]*gpuctl.Node, 0, len(h.blocks))
		for _, b := range h.blocks {
			nodes = append(nodes, b.node)
		}
		h.cfg.Provider.Release(nodes)
		h.blocks = nil
		h.gBlocks.Set(0)
	}
}

// ShutdownAndWait shuts down and blocks until every worker has exited
// (and thus destroyed its GPU context) — required before
// repartitioning a GPU, since MPS percentages and MIG layouts can only
// change once client processes are gone (§6). A killed worker exits at
// the kill; its orphaned app is not waited for.
func (h *HTEX) ShutdownAndWait(p *devent.Proc) {
	spawned := h.spawned
	h.spawned = nil
	h.Shutdown()
	for _, w := range spawned {
		p.Wait(&w.exited)
	}
}

// Restart reconfigures the accelerator partitioning and starts fresh
// workers: the paper's MPS/MIG re-partition path, which requires full
// process restart and re-pays every cold-start component.
func (h *HTEX) Restart(p *devent.Proc, accelerators []string, percentages []int) error {
	// Opened live (not recorded retroactively) so streaming analyzers
	// see the restart window while it is in progress: tasks completing
	// during the drain must not be attributed before the overlapping
	// restart span exists.
	rspan := h.obs.StartSpan("htex", "restart", h.cfg.Label, 0,
		obs.String("executor", h.cfg.Label))
	h.ShutdownAndWait(p)
	cfg := h.cfg
	cfg.AvailableAccelerators = accelerators
	cfg.GPUPercentages = percentages
	if err := cfg.Validate(); err != nil {
		h.obs.EndSpan(rspan)
		return err
	}
	h.cfg = cfg
	err := h.Start()
	h.obs.EndSpan(rspan)
	h.cRestarts.Inc()
	return err
}

// worker is one pilot-job worker process.
type worker struct {
	h       *HTEX
	name    string
	node    *gpuctl.Node
	binding gpuctl.Binding
	env     map[string]string
	gpu     *simgpu.Context
	state   map[string]any
	// stopped is set at the first kill, retire or shutdown; killed
	// and retired record the first two.
	stopped, killed, retired bool
	// exited fires when the worker leaves the pool.
	exited devent.Event
	// p runs the worker's apps (see workerProc); phase is where its
	// loop resumes (see workerLoop).
	p     *devent.Proc
	phase workerPhase
	// sub is the attempt the worker picked, from the pick until its app
	// returns; fin, result and err carry the returned app's outcome to
	// the finishing phase. span is the worker's lifecycle span and
	// runSpan the attempt's run span.
	sub     *submission
	fin     *submission
	result  any
	err     error
	span    obs.SpanID
	runSpan obs.SpanID
}

// newWorker builds a worker and its exit event. The event exists
// before the loop runs, so ScaleIn can wait on workers that have not
// booted yet.
func (h *HTEX) newWorker(name string, node *gpuctl.Node) *worker {
	w := &worker{
		h:     h,
		name:  name,
		node:  node,
		state: make(map[string]any),
		env:   map[string]string{},
	}
	h.env.InitEvent(&w.exited, "exit:"+name)
	return w
}

// halt stops the worker unless it already stopped: an idle worker's
// receive is withdrawn at once, and a busy one withdraws when it next
// goes idle (workerStep).
func (w *worker) halt() {
	if !w.stopped {
		w.stopped = true
		w.h.queue.Withdraw((*workerLoop)(w))
	}
}

// releaseGPU destroys the worker's GPU context, if it holds a live one.
func (w *worker) releaseGPU() {
	if w.gpu != nil && !w.gpu.Destroyed() {
		w.gpu.Destroy()
		w.gpu = nil
	}
}

// Name implements faas.WorkerHandle.
func (w *worker) Name() string { return w.name }

// State implements faas.WorkerHandle.
func (w *worker) State() map[string]any { return w.state }

// GPUContext implements faas.WorkerHandle: the context is created on
// first use via the node's CUDA bring-up path (paying context init)
// and stays warm for subsequent invocations on this worker.
func (w *worker) GPUContext(p *devent.Proc) (*simgpu.Context, error) {
	if w.gpu != nil && !w.gpu.Destroyed() {
		return w.gpu, nil
	}
	t0 := p.Now()
	ctx, err := w.node.OpenContext(p, w.name, w.env)
	if err != nil {
		return nil, err
	}
	if w.killed {
		// Killed during bring-up: releaseGPU already ran and found no
		// context, so this one would outlive the worker and collide
		// with its respawn's allocations under the same name.
		ctx.Destroy()
		return nil, ErrWorkerLost
	}
	// Lazy context bring-up charged to the invocation that paid it: a
	// cold-start phase boundary for the attribution engine.
	if now := p.Now(); now > t0 {
		w.h.obs.AddSpan("htex", "ctxinit", w.name, w.runSpan, t0, now)
	}
	ctx.SetTraceParent(w.runSpan)
	w.gpu = ctx
	return ctx, nil
}

var _ faas.Executor = (*HTEX)(nil)
var _ faas.WorkerHandle = (*worker)(nil)
