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
	// RestartBackoff, when positive, restarts a crashed worker after an
	// exponential delay (RestartBackoff doubled per crash of that slot,
	// capped at RestartBackoffMax). 0 keeps the seed behavior: crashed
	// workers stay dead.
	RestartBackoff time.Duration
	// RestartBackoffMax caps the restart backoff (0 = uncapped).
	RestartBackoffMax time.Duration
	// BlacklistAfter blacklists a worker slot after that many crashes:
	// the slot is never restarted again. 0 disables blacklisting.
	BlacklistAfter int
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
	if c.RestartBackoff < 0 {
		return fmt.Errorf("htex: negative RestartBackoff %v", c.RestartBackoff)
	}
	if c.RestartBackoffMax < 0 {
		return fmt.Errorf("htex: negative RestartBackoffMax %v", c.RestartBackoffMax)
	}
	if c.RestartBackoffMax > 0 && c.RestartBackoffMax < c.RestartBackoff {
		return fmt.Errorf("htex: RestartBackoffMax %v below RestartBackoff %v",
			c.RestartBackoffMax, c.RestartBackoff)
	}
	if c.BlacklistAfter < 0 {
		return fmt.Errorf("htex: negative BlacklistAfter %d", c.BlacklistAfter)
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

// submission is one queued task.
type submission struct {
	task  *faas.Task
	app   faas.App
	args  []any
	done  *devent.Event
	qspan obs.SpanID
}

// blockInfo tracks one provisioned block: the node it runs on and its
// worker pool, so scale-in can retire the block as a unit and return
// the node to the provider.
type blockInfo struct {
	id      int
	node    *gpuctl.Node
	workers []*worker
	procs   []*devent.Proc
}

// HTEX is the executor. Create with New, register with a DFK, Start
// to provision workers.
type HTEX struct {
	env      *devent.Env
	cfg      Config
	queue    *devent.Chan[*submission]
	shutdown *devent.Event
	workers  []*worker
	procs    []*devent.Proc
	started  bool
	gen      int

	draining    bool
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
		queue:       devent.NewChan[*submission](env, 1<<20),
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

// Workers implements faas.Executor.
func (h *HTEX) Workers() int { return len(h.workers) }

// Start implements faas.Executor: provision blocks from the provider
// and launch one worker proc per accelerator entry (or MaxWorkers CPU
// workers) per block.
func (h *HTEX) Start() error {
	if h.started {
		return nil
	}
	h.started = true
	h.shutdown = h.env.NewNamedEvent("htex-shutdown:" + h.cfg.Label)
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
		wp := h.env.Spawn(w.name, func(wp *devent.Proc) {
			h.workerLoop(wp, w)
		})
		wp.SetDaemon(true) // idle workers are not deadlocks
		h.procs = append(h.procs, wp)
		b.procs = append(b.procs, wp)
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
			if w.retire != nil && !w.retire.Fired() {
				w.retire.Fire(nil)
			}
		}
	}
	// Wait for every retired worker to drain its in-flight task and
	// exit (destroying its GPU context) before returning the nodes.
	for _, b := range retire {
		for _, wp := range b.procs {
			p.Wait(wp.Done())
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

func (h *HTEX) workerLoop(p *devent.Proc, w *worker) {
	// The worker's lifecycle is one span on its own track; init and
	// run spans nest under it. Each loop entry is a cold start.
	wspan := h.obs.StartSpan("htex", "worker", w.name, 0,
		obs.String("executor", h.cfg.Label),
		obs.String("accelerator", w.binding.Accelerator),
		obs.Int("gpu_pct", w.binding.GPUPercent))
	// Daemon lifecycle: stays open until drain, so pin it out of the
	// streaming flush frontier (it would otherwise block every span
	// recorded after it for the whole run).
	h.obs.PinSpan(wspan)
	h.gWorkers.Add(1)
	h.cCold.Inc()
	if h.cfg.WorkerInit > 0 {
		t0 := p.Now()
		p.Sleep(h.cfg.WorkerInit) // function initialization (§6)
		h.obs.AddSpan("htex", "init", w.name, wspan, t0, p.Now())
	}
	w.ready = true
	// One stop event for the worker's whole life: shutdown, kill and
	// retire each fire it. Built once, it is the worker's only
	// registration on the executor-wide shutdown event, and it detaches
	// from the other two when it fires.
	stop := devent.AnyOf(h.env, h.shutdown, w.kill, w.retire)
	for h.workerStep(p, w, stop) {
	}
	// The exit runs inline, not deferred: a worker still parked when
	// its Env closes unwinds without touching spans, gauges or the GPU.
	h.gWorkers.Add(-1)
	h.obs.EndSpan(wspan)
	w.releaseGPU()
}

// workerStep picks and runs one task. It reports false once the worker
// has left the pool: retired, shut down, or killed (idle or mid-task).
func (h *HTEX) workerStep(p *devent.Proc, w *worker, stop *devent.Event) bool {
	// Retirement is checked before the queue: RecvOr drains buffered
	// work first, so a retired worker would otherwise keep picking
	// tasks as long as a backlog exists.
	if w.retire.Fired() {
		h.workerRetired(w)
		return false
	}
	sub, ok, cancelled := h.queue.RecvOr(p, stop)
	if cancelled || !ok {
		if w.kill.Fired() {
			h.workerCrashed(w)
		} else if w.retire.Fired() {
			h.workerRetired(w)
		}
		return false
	}
	t := sub.task
	t.Status = faas.TaskRunning
	t.StartTime = p.Now()
	t.Worker = w.name
	h.obs.EndSpan(sub.qspan, obs.String("worker", w.name))
	rspan := h.obs.StartSpan("htex", "run", w.name, t.Span,
		obs.Int("task", t.ID), obs.String("app", t.App),
		obs.String("accelerator", w.binding.Accelerator),
		obs.Int("gpu_pct", w.binding.GPUPercent))
	w.runSpan = rspan
	if w.gpu != nil && !w.gpu.Destroyed() {
		w.gpu.SetTraceParent(rspan)
	}
	h.cPicked.Inc()
	// Run the task body in its own proc so a worker crash
	// (KillWorker) can abandon it: the orphaned body keeps no
	// resources once the GPU context is destroyed.
	taskDone := h.env.NewNamedEvent("htex-run")
	w.task, w.lost = taskDone, false
	body := h.env.Spawn(w.taskProc, func(tp *devent.Proc) {
		result, err := sub.app.Fn(faas.NewInvocation(tp, t, sub.args, w.env, w))
		if taskDone.Fired() {
			return // worker already declared lost
		}
		if err != nil {
			taskDone.Fail(err)
		} else {
			taskDone.Fire(result)
		}
	})
	body.SetDaemon(true)
	if w.kill.Fired() {
		// Killed before this pick (during init, or after the last task
		// finished but before the worker resumed): lost at once.
		w.abandon()
	}
	p.Wait(taskDone)
	w.task = nil
	if w.lost {
		// Crash: abandon the body, abort its kernels, fail the task so
		// the DFK can retry elsewhere.
		t.EndTime = p.Now()
		h.obs.EndSpan(rspan, obs.String("status", "lost"))
		w.releaseGPU()
		sub.done.Fail(fmt.Errorf("%w: %s", ErrWorkerLost, w.name))
		h.workerCrashed(w)
		return false
	}
	t.EndTime = p.Now()
	if taskDone.Err() != nil {
		h.obs.EndSpan(rspan,
			obs.String("status", "failed"),
			obs.String("error", taskDone.Err().Error()))
		sub.done.Fail(taskDone.Err())
	} else {
		h.obs.EndSpan(rspan, obs.String("status", "done"))
		sub.done.Fire(taskDone.Value())
	}
	return true
}

// KillWorker simulates a worker-process crash (OOM kill, node fault):
// its in-flight task fails with ErrWorkerLost (retriable), its GPU
// context is destroyed, and the worker leaves the pool. It reports
// whether a worker with that name existed.
func (h *HTEX) KillWorker(name string) bool {
	for _, w := range h.workers {
		if w.name == name && w.kill != nil && !w.kill.Fired() {
			w.kill.Fire(nil)
			w.abandon()
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

// workerCrashed is the single exit path for killed workers (idle or
// mid-task): it counts the crash against the worker's slot, blacklists
// the slot after BlacklistAfter crashes, schedules an exponential-
// backoff restart when enabled, and otherwise checks the queue for
// stranding.
func (h *HTEX) workerCrashed(w *worker) {
	h.removeWorker(w)
	h.cKilled.Inc()
	if !h.started {
		return
	}
	h.crashes[w.name]++
	n := h.crashes[w.name]
	if b := h.cfg.BlacklistAfter; b > 0 && n >= b {
		if !h.blacklisted[w.name] {
			h.blacklisted[w.name] = true
			h.gBlacklist.Add(1)
		}
		h.failIfStranded()
		return
	}
	if h.cfg.RestartBackoff <= 0 {
		h.failIfStranded()
		return
	}
	shift := n - 1
	if shift > 20 {
		shift = 20
	}
	delay := h.cfg.RestartBackoff << uint(shift)
	if max := h.cfg.RestartBackoffMax; max > 0 && delay > max {
		delay = max
	}
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
	wp := h.env.Spawn(w.name, func(p *devent.Proc) {
		h.workerLoop(p, w)
	})
	wp.SetDaemon(true)
	h.procs = append(h.procs, wp)
	blk.procs = append(blk.procs, wp)
}

// failIfStranded drains the queue with ErrNoWorkers when no worker is
// alive and none is coming back — queued submissions would otherwise
// never complete, violating the exactly-one-terminal-state invariant.
func (h *HTEX) failIfStranded() {
	if !h.started || !h.provisioned || len(h.workers) > 0 || h.pendingRestarts > 0 {
		return
	}
	// Scale-to-zero is not stranding: the queue waits for the next
	// ScaleOut.
	if h.scaledToZero {
		return
	}
	for {
		sub, ok := h.queue.TryRecv()
		if !ok {
			return
		}
		h.obs.EndSpan(sub.qspan, obs.String("status", "no-workers"))
		sub.done.Fail(fmt.Errorf("%w: executor %q", ErrNoWorkers, h.cfg.Label))
	}
}

// Submit implements faas.Executor.
func (h *HTEX) Submit(task *faas.Task, app faas.App, args []any) *devent.Event {
	done := h.env.NewNamedEvent("htex-task")
	sub := &submission{task: task, app: app, args: args, done: done}
	if !h.started {
		done.Fail(faas.ErrShutdown)
		return done
	}
	if h.draining {
		done.Fail(fmt.Errorf("%w: executor %q draining", faas.ErrShutdown, h.cfg.Label))
		return done
	}
	if h.provisioned && len(h.workers) == 0 && h.pendingRestarts == 0 && !h.scaledToZero {
		done.Fail(fmt.Errorf("%w: executor %q", ErrNoWorkers, h.cfg.Label))
		return done
	}
	// The queue span shares the task's track, nesting under its root
	// span; the picking worker ends it.
	sub.qspan = h.obs.StartSpan("htex", "queue", task.Track(), task.Span,
		obs.String("executor", h.cfg.Label))
	if !h.queue.TrySend(sub) {
		h.obs.EndSpan(sub.qspan, obs.String("status", "overflow"))
		done.Fail(fmt.Errorf("htex %q: queue full", h.cfg.Label))
	}
	return done
}

// Drain stops accepting new submissions — they fail fast with an
// ErrShutdown-wrapped error — while queued and running tasks finish
// normally. Part of graceful shutdown: drain, wait for in-flight work,
// then Shutdown.
func (h *HTEX) Drain() { h.draining = true }

// Shutdown implements faas.Executor: running tasks finish, idle
// workers exit and destroy their GPU contexts, queued submissions
// fail with ErrShutdown.
func (h *HTEX) Shutdown() {
	if !h.started {
		return
	}
	h.started = false
	h.draining = false
	h.provisioned = false
	h.shutdown.Fire(nil)
	for {
		sub, ok := h.queue.TryRecv()
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

// ShutdownAndWait shuts down and blocks until every worker proc has
// exited (and thus destroyed its GPU context) — required before
// repartitioning a GPU, since MPS percentages and MIG layouts can only
// change once client processes are gone (§6).
func (h *HTEX) ShutdownAndWait(p *devent.Proc) {
	procs := h.procs
	h.procs = nil
	h.Shutdown()
	for _, wp := range procs {
		p.Wait(wp.Done())
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
	h.queue = devent.NewChan[*submission](h.env, 1<<20)
	err := h.Start()
	h.obs.EndSpan(rspan)
	h.cRestarts.Inc()
	return err
}

// worker is one pilot-job worker process.
type worker struct {
	name string
	// taskProc names the proc each task body runs in.
	taskProc string
	node     *gpuctl.Node
	binding  gpuctl.Binding
	env      map[string]string
	gpu      *simgpu.Context
	state    map[string]any
	kill     *devent.Event
	retire   *devent.Event
	// task is the in-flight task's run event; lost marks it failed by
	// a kill rather than by its body.
	task    *devent.Event
	lost    bool
	ready   bool
	runSpan obs.SpanID
	obsC    *obs.Collector
}

// newWorker builds a worker and its lifecycle events. The events
// exist before the loop runs, so KillWorker and ScaleIn work on
// workers that have not been scheduled yet.
func (h *HTEX) newWorker(name string, node *gpuctl.Node) *worker {
	return &worker{
		name:     name,
		taskProc: name + "/task",
		node:     node,
		obsC:     h.obs,
		state:    make(map[string]any),
		env:      map[string]string{},
		kill:     h.env.NewNamedEvent("kill:" + name),
		retire:   h.env.NewNamedEvent("retire:" + name),
	}
}

// abandon fails the in-flight task's run event with ErrWorkerLost, so
// a killed worker stops waiting for its orphaned body.
func (w *worker) abandon() {
	if w.task != nil && !w.task.Fired() {
		w.task.Fail(ErrWorkerLost)
		w.lost = true
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
	// Lazy context bring-up charged to the invocation that paid it: a
	// cold-start phase boundary for the attribution engine.
	if now := p.Now(); now > t0 {
		w.obsC.AddSpan("htex", "ctxinit", w.name, w.runSpan, t0, now)
	}
	ctx.SetTraceParent(w.runSpan)
	w.gpu = ctx
	return ctx, nil
}

var _ faas.Executor = (*HTEX)(nil)
var _ faas.WorkerHandle = (*worker)(nil)
