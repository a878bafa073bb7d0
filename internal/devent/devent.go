// Package devent implements a deterministic, process-oriented
// discrete-event simulation kernel.
//
// An Env owns a virtual clock and an event queue. Simulated activities
// are plain scheduled callbacks (Schedule), Steps (state machines that
// queue themselves with ScheduleStep, await Events with Then and take
// from Queues with Queue.Then, a receive that Queue.Withdraw cancels),
// or Procs: coroutines that the scheduler resumes one at a time and
// that advance virtual time by blocking on Sleep, Events, or Queues. A
// Step the scheduler dispatches may also resume a proc parked in Park,
// running it inline until it parks again, so a proc need only exist
// where a body blocks mid-call. A periodic daemon is one proc that
// Every spawns and that runs a tick on each period until Ticker.Stop.
//
// The kernel is logically single-threaded: at any instant either the
// scheduler loop or exactly one Proc is executing. All devent objects
// must therefore only be touched from "sim context" — from inside a
// Proc body, a Step or a scheduled callback. No locks are needed and
// runs are fully deterministic: simultaneous events execute in the
// order they were scheduled.
package devent

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// ErrDeadlock is returned by Run when no events remain but one or more
// Procs are still blocked or Steps still await an Event.
var ErrDeadlock = errors.New("devent: deadlock")

// ErrClosed is returned by Run on an environment that Close ended.
var ErrClosed = errors.New("devent: closed")

// compactThreshold is the minimum queue length before cancelled-item
// compaction is considered; below it the lazy pop-time cleanup is
// cheaper than rebuilding the heap.
const compactThreshold = 64

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; create one with NewEnv.
//
// The queue has two lanes. Items due at Now() when they are queued
// (wakeups, handoffs, zero-delay sleeps: most of them) go to the ready
// FIFO; the rest go to the heap. See pop for why the merged order is
// the (at, seq) order.
type Env struct {
	now     time.Duration
	seq     int64
	queue   eventHeap
	ready   fifo[*queueItem]
	nextPID int64
	running bool
	closed  bool
	failure error
	// live lists the procs whose bodies have not returned, in spawn
	// order (an intrusive list: spawning and exiting allocate nothing).
	live procList
	// idle holds coroutines whose proc has exited, suspended until a
	// Spawn hands them the next body; at most maxIdle are kept, and
	// only while Run runs.
	idle  *procG
	nidle int
	// free is a free list of recycled queueItems; cancelled counts
	// dead items still sitting in either lane (compacted when they
	// exceed half of both).
	free      *queueItem
	cancelled int
	// freeFanout recycles the Steps that batch multi-waiter fanouts
	// (see event.go).
	freeFanout *fanout
	// awaiting counts Steps registered with Then on events that have
	// not fired: a Step left waiting when the queue drains is a
	// deadlock, like a parked proc.
	awaiting int
	// dispatched counts executed events; always on (a single
	// increment) so throughput scenarios can report events/sec without
	// attaching an observer.
	dispatched int64
	// resumes counts proc resumptions (coroutine switches into a
	// body), always on like dispatched; current is the proc running.
	resumes int64
	current *Proc
	obs     Observer
}

// EventsDispatched reports how many events the scheduler has executed
// since the environment was created — the denominator of the scale
// scenario's events/sec metric.
func (e *Env) EventsDispatched() int64 { return e.dispatched }

// Resumes reports how many times a proc has been resumed since the
// environment was created, its first start included: the coroutine
// switches the run paid for, of which a Step pays none.
func (e *Env) Resumes() int64 { return e.resumes }

// Observer receives scheduler lifecycle callbacks (the obs package's
// Collector implements it). All methods run in sim context. Dispatched
// fires once per executed event, so implementations must keep it
// allocation-free; with no observer installed the hooks cost a single
// nil check.
type Observer interface {
	// ProcSpawned fires when Spawn registers a new proc.
	ProcSpawned()
	// ProcExited fires when a proc's body returns.
	ProcExited()
	// Dispatched fires for every event popped from the queue.
	Dispatched()
}

// SetObserver installs (or, with nil, removes) the scheduler observer.
func (e *Env) SetObserver(o Observer) { e.obs = o }

// NewEnv returns a fresh simulation environment with the clock at zero.
func NewEnv() *Env { return &Env{} }

// Now reports the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Fail aborts the simulation: Run returns err after the current
// callback or proc yields. Only the first failure is retained.
func (e *Env) Fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
}

// Timer is a handle to a scheduled callback. Cancelling an already
// fired or cancelled timer is a no-op. Queue items are pooled, so the
// handle carries the item's generation: a stale handle (whose item has
// since fired and been recycled) is recognised and ignored. The zero
// Timer is inactive; ArmAt arms a caller-owned one in place.
type Timer struct {
	env  *Env
	item *queueItem
	gen  uint64
}

// Cancel prevents the timer's callback from running. It reports whether
// the timer was still pending.
func (t *Timer) Cancel() bool {
	if !t.Active() {
		return false
	}
	t.item.s = nil
	t.item = nil
	e := t.env
	e.cancelled++
	if n := len(e.queue) + e.ready.len(); e.cancelled > n/2 && n >= compactThreshold {
		e.compact()
	}
	return true
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool {
	return t != nil && t.item != nil && t.gen == t.item.gen && t.item.s != nil
}

// Schedule runs fn at Now()+delay. A negative delay is treated as zero.
// It returns a cancellable handle.
func (e *Env) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time t. Times in the past are
// clamped to Now().
func (e *Env) ScheduleAt(t time.Duration, fn func()) *Timer {
	tm := &Timer{}
	e.ArmAt(tm, t, fn)
	return tm
}

// ArmAt schedules fn at absolute virtual time at on the caller-owned
// timer t, first cancelling whatever t still has pending, so a deadline
// that is re-armed over and over keeps one Timer instead of allocating
// a handle per arm. A copy of t taken before the re-arm is a stale
// handle: its Cancel is a no-op. Times in the past are clamped to Now().
func (e *Env) ArmAt(t *Timer, at time.Duration, fn func()) {
	t.Cancel()
	if at < e.now {
		at = e.now
	}
	it := e.newItem(at, StepFunc(fn))
	e.push(it)
	*t = Timer{env: e, item: it, gen: it.gen}
}

// Step is a closure-free scheduled activity: an object that carries its
// own state, queued with ScheduleStep or registered on an Event with
// Then. Converting a pointer to a Step allocates nothing. Step is the
// kernel's one kind of queued work: a callback, a proc handoff and a
// multi-waiter fanout are each queued as a Step.
type Step interface{ Step() }

// StepFunc is a func as a Step: what ArmAt queues, and a driver loop
// body that keeps its state in the locals it captures.
type StepFunc func()

func (f StepFunc) Step() { f() }

// handoff is a proc's resumption as a Step.
type handoff Proc

func (h *handoff) Step() { h.env.handoff((*Proc)(h)) }

// ScheduleStep runs s.Step at Now()+delay, without a closure or a
// Timer. A negative delay is treated as zero.
func (e *Env) ScheduleStep(delay time.Duration, s Step) {
	if delay < 0 {
		delay = 0
	}
	e.push(e.newItem(e.now+delay, s))
}

// push queues it on the ready lane if it is due now, else on the heap.
func (e *Env) push(it *queueItem) {
	if it.at == e.now {
		e.ready.push(it)
	} else {
		e.queue.push(it)
	}
}

// newItem takes a queueItem from the free list (or allocates one) and
// initialises it.
func (e *Env) newItem(at time.Duration, s Step) *queueItem {
	it := e.free
	if it != nil {
		e.free = it.next
		it.next = nil
	} else {
		it = &queueItem{}
	}
	e.seq++
	it.at = at
	it.seq = e.seq
	it.s = s
	return it
}

// release returns an item to the free list, bumping its generation so
// stale Timer handles no longer match.
func (e *Env) release(it *queueItem) {
	it.s = nil
	it.gen++
	it.next = e.free
	e.free = it
}

// compact drops the cancelled items from both lanes, releasing them to
// the pool, and rebuilds the heap; the ready lane keeps its FIFO order.
// Long-lived open-loop runs cancel far more timers than they fire (e.g.
// a GPU domain's completion timer, re-armed on every share change);
// without compaction those dead items accumulate until their deadline
// is popped.
func (e *Env) compact() {
	live := e.queue[:0]
	for _, it := range e.queue {
		if it.dead() {
			e.release(it)
		} else {
			live = append(live, it)
		}
	}
	clear(e.queue[len(live):])
	e.queue = live
	e.queue.init()
	r := &e.ready
	n := 0
	for _, it := range r.s[r.head:] {
		if it.dead() {
			e.release(it)
		} else {
			r.s[n] = it
			n++
		}
	}
	clear(r.s[n:])
	r.s, r.head = r.s[:n], 0
	e.cancelled = 0
}

// pop removes and returns the next live item in (at, seq) order, or nil
// when both lanes are empty, lazily dropping cancelled items. Every
// ready item is due at now, and now only advances when the ready lane
// is empty. A heap item due at now was therefore queued before the
// clock reached now, so its seq is smaller than every ready item's:
// the heap head goes first when it is due now, the ready head next,
// and the heap head (advancing the clock) only once no item is ready.
func (e *Env) pop() *queueItem {
	for {
		if len(e.queue) > 0 {
			it := e.queue[0]
			if it.dead() {
				e.queue.pop()
				e.cancelled--
				e.release(it)
				continue
			}
			if it.at == e.now || e.ready.len() == 0 {
				return e.queue.pop()
			}
		} else if e.ready.len() == 0 {
			return nil
		}
		it := e.ready.pop()
		if !it.dead() {
			return it
		}
		e.cancelled--
		e.release(it)
	}
}

// Run drains the event queue, advancing virtual time, until no events
// remain or a failure is recorded. It returns ErrDeadlock (wrapped with
// the blocked proc names and the count of waiting Steps) if procs are
// still parked, or Steps still await an Event, when the queue empties.
func (e *Env) Run() error {
	if e.running {
		return errors.New("devent: Run called re-entrantly")
	}
	if e.closed {
		return ErrClosed
	}
	e.running = true
	defer func() {
		e.running = false
		e.releaseIdle()
	}()

	for e.failure == nil {
		it := e.pop()
		if it == nil {
			break
		}
		if it.at > e.now {
			e.now = it.at
		}
		s := it.s
		e.release(it)
		e.dispatched++
		if e.obs != nil {
			e.obs.Dispatched()
		}
		s.Step()
	}
	if e.failure != nil {
		return e.failure
	}
	if blocked := e.blockedProcs(); len(blocked) > 0 || e.awaiting > 0 {
		return fmt.Errorf("%w: %d proc(s) blocked forever: %v; %d step(s) awaiting an event",
			ErrDeadlock, len(blocked), blocked, e.awaiting)
	}
	return nil
}

func (e *Env) blockedProcs() []string {
	var names []string
	for p := e.live.head; p != nil; p = p.next {
		if p.parked && !p.daemon {
			names = append(names, p.Name())
		}
	}
	sort.Strings(names)
	return names
}

// queueItem is a pending Step. Items are pooled via Env.free; gen
// distinguishes a live item from a recycled one holding the same
// address.
type queueItem struct {
	at   time.Duration
	seq  int64
	gen  uint64
	s    Step
	next *queueItem
}

// dead reports whether the item was cancelled (only Timers cancel).
func (it *queueItem) dead() bool { return it.s == nil }

// eventHeap is a binary min-heap of queue items ordered by (at, seq).
type eventHeap []*queueItem

// before reports whether a is dispatched before b.
func before(a, b *queueItem) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (h *eventHeap) push(it *queueItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(it, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = it
	*h = q
}

func (h *eventHeap) pop() *queueItem {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		q.down(0, last)
	}
	*h = q
	return top
}

// down places it at hole i, sifting it down to its position.
func (h eventHeap) down(i int, it *queueItem) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], it) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}

// init establishes the heap order over arbitrary contents.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, h[i])
	}
}

// Proc is a simulated process: a body running on a pooled coroutine
// under scheduler control, blocking in virtual time.
type Proc struct {
	env  *Env
	id   int64
	base string
	// g is the coroutine running the body; nil once the body returned.
	g      *procG
	parked bool
	dead   bool
	daemon bool
	// prev and next link the proc into Env.live while its body runs.
	prev, next *Proc
}

// procList is an intrusive doubly linked list of procs.
type procList struct{ head, tail *Proc }

func (l *procList) push(p *Proc) {
	p.prev = l.tail
	if l.tail != nil {
		l.tail.next = p
	} else {
		l.head = p
	}
	l.tail = p
}

func (l *procList) remove(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = nil, nil
}

// SetDaemon marks the proc as a daemon: a parked daemon (an htex
// worker's proc, parked between apps until a Step resumes it) does not
// count as a deadlock when the event queue drains, mirroring
// daemon-thread semantics.
func (p *Proc) SetDaemon(d bool) { p.daemon = d }

// Spawn starts a new process executing fn. The process begins running
// at the current virtual time (after the caller yields control). On a
// closed Env the proc never runs.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := e.NewProc(name, fn)
	if !p.dead {
		e.ScheduleStep(0, (*handoff)(p))
	}
	return p
}

// NewProc registers a process executing fn that starts parked, with
// nothing queued: fn begins at the first Resume. On a closed Env the
// proc never runs.
func (e *Env) NewProc(name string, fn func(p *Proc)) *Proc {
	e.nextPID++
	p := &Proc{env: e, id: e.nextPID, base: name, parked: true}
	if e.closed {
		p.dead = true
		return p
	}
	g := e.idle
	if g != nil {
		e.idle, g.link = g.link, nil
		e.nidle--
	} else {
		g = e.newProcG()
	}
	g.body, g.p = fn, p
	p.g = g
	e.live.push(p)
	if e.obs != nil {
		e.obs.ProcSpawned()
	}
	return p
}

// handoff runs p until it parks or exits. A coroutine left inside a
// body's runtime.Goexit is stopped on a throwaway goroutine, where
// stop re-raises the Goexit.
func (e *Env) handoff(p *Proc) {
	if p.dead {
		return
	}
	p.parked = false
	e.resumes++
	g := p.g
	e.current = p
	g.next()
	e.current = nil
	if g.goexit {
		go g.stop()
	}
}

// Park yields control back to the scheduler until somebody resumes p:
// Sleep, Wait and Get park after queueing or registering the wakeup,
// and a bare Park waits for a Step to call Resume. A proc stopped by
// Close unwinds with a panic that its body recovers; so does a
// deferred call that blocks while it unwinds.
func (p *Proc) Park() {
	p.parked = true
	if !p.g.yield(struct{}{}) {
		panic(unwind{})
	}
}

// Resume runs p, parked in a bare Park or not yet started (NewProc),
// inline until it parks again or returns, so the proc costs no queue
// item of its own. Call it only from scheduler context, a Step or
// callback that Run dispatched; called from inside a proc (a Step
// that a proc ran inline, say) it panics.
func (p *Proc) Resume() {
	if p.env.current != nil {
		panic("devent: Resume called from inside a proc")
	}
	p.env.handoff(p)
}

// releaseIdle ends the pooled coroutines. Run calls it on return, so
// an Env that is never closed strands no idle coroutine: only procs
// still parked when the queue drains outlive Run.
func (e *Env) releaseIdle() {
	for ; e.idle != nil; e.idle = e.idle.link {
		e.idle.stop()
	}
	e.nidle = 0
}

// Close ends the environment: every proc still parked or not yet
// started is unwound (its coroutine is stopped without returning to
// its body's caller) and the event queue is dropped. Pooled coroutines
// already ended when Run returned. Call Close once every result has
// been read: deferred calls in unwound bodies still run, and a panic
// in one is dropped. Afterwards Run returns ErrClosed, Spawn returns
// procs that never run, and Now and EventsDispatched keep their final
// values. Close must not be called from sim context.
func (e *Env) Close() {
	if e.running {
		panic("devent: Close called from sim context")
	}
	if e.closed {
		return
	}
	e.closed = true
	for p := e.live.head; p != nil; p = e.live.head {
		e.live.remove(p)
		p.dead = true
		p.g.stop()
	}
	e.queue, e.ready, e.free, e.cancelled = nil, fifo[*queueItem]{}, nil, 0
	e.freeFanout = nil
}

// Name returns the proc's unique name ("base#id").
func (p *Proc) Name() string { return fmt.Sprintf("%s#%d", p.base, p.id) }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Sleep blocks the proc for d of virtual time. Non-positive durations
// yield (the proc re-queues at the current time).
func (p *Proc) Sleep(d time.Duration) {
	p.env.ScheduleStep(d, (*handoff)(p))
	p.Park()
}

// Ticker is a periodic daemon: a proc that runs a tick every d of
// virtual time until Stop. Each tick costs two events, its timer
// firing and the proc's handoff, and a tick may block.
type Ticker struct {
	p     *Proc
	d     time.Duration
	tick  func(*Proc)
	timer Timer
	fire  func()
	// due is set by the timer's callback: a wakeup without it is
	// Stop's, and the proc returns without ticking.
	due     bool
	stopped bool
}

// Every spawns a proc named name that calls tick every d of virtual
// time, the first d after it starts, until Stop. The pending timer
// keeps the event queue from draining, so pair every Every with a Stop.
func (e *Env) Every(name string, d time.Duration, tick func(*Proc)) *Ticker {
	t := &Ticker{d: d, tick: tick}
	t.fire = func() {
		t.due = true
		e.ScheduleStep(0, (*handoff)(t.p))
	}
	t.p = e.Spawn(name, t.run)
	return t
}

func (t *Ticker) run(p *Proc) {
	for !t.stopped {
		t.due = false
		p.env.ArmAt(&t.timer, p.Now()+t.d, t.fire)
		p.Park()
		if !t.due {
			return
		}
		t.tick(p)
	}
}

// Stop ends the ticker and reports whether it was running. A proc
// parked until its next tick is woken and returns; a tick that is
// running, or already due at this instant, still completes, and the
// proc then returns without arming again. Stop on a nil Ticker does
// nothing.
func (t *Ticker) Stop() bool {
	if t == nil || t.stopped {
		return false
	}
	t.stopped = true
	if t.timer.Cancel() {
		t.p.env.ScheduleStep(0, (*handoff)(t.p))
	}
	return true
}
