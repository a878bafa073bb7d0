// Package devent implements a deterministic, process-oriented
// discrete-event simulation kernel.
//
// An Env owns a virtual clock and an event queue. Simulated activities
// are either plain scheduled callbacks (Schedule) or Procs: coroutines
// that the scheduler resumes one at a time and that advance virtual
// time by blocking on Sleep, Events, Chans, or Resources.
//
// The kernel is logically single-threaded: at any instant either the
// scheduler loop or exactly one Proc is executing. All devent objects
// must therefore only be touched from "sim context" — from inside a
// Proc body or a scheduled callback. No locks are needed and runs are
// fully deterministic: simultaneous events execute in the order they
// were scheduled.
package devent

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"time"
)

// ErrTimeout is returned by the *Timeout blocking variants when the
// deadline elapses before the awaited condition becomes true.
var ErrTimeout = errors.New("devent: timeout")

// ErrDeadlock is returned by Run when no events remain but one or more
// Procs are still blocked.
var ErrDeadlock = errors.New("devent: deadlock")

// ErrClosed is returned for operations on closed channels or destroyed
// resources where panicking would be unhelpful.
var ErrClosed = errors.New("devent: closed")

// compactThreshold is the minimum queue length before cancelled-item
// compaction is considered; below it the lazy pop-time cleanup is
// cheaper than rebuilding the heap.
const compactThreshold = 64

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; create one with NewEnv.
type Env struct {
	now     time.Duration
	seq     int64
	queue   eventHeap
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
	// dead items still sitting in the heap (compacted when they
	// exceed half the queue).
	free      *queueItem
	cancelled int
	// freeWaiter recycles eventWaiters (see event.go); freeBatches
	// recycles the proc buffers used to batch multi-waiter fanouts.
	freeWaiter  *eventWaiter
	freeBatches [][]*Proc
	// dispatched counts executed events; always on (a single
	// increment) so throughput scenarios can report events/sec without
	// attaching an observer.
	dispatched int64
	obs        Observer
}

// EventsDispatched reports how many events the scheduler has executed
// since the environment was created — the denominator of the scale
// scenario's events/sec metric.
func (e *Env) EventsDispatched() int64 { return e.dispatched }

// Observer receives scheduler lifecycle callbacks (the obs package's
// Collector implements it). All methods run in sim context. Dispatched
// fires once per executed event, so implementations must keep it
// allocation-free; with no observer installed the hooks cost a single
// nil check.
type Observer interface {
	// ProcSpawned fires when Spawn registers a new proc.
	ProcSpawned(name string, at time.Duration)
	// ProcExited fires when a proc's body returns.
	ProcExited(name string, at time.Duration)
	// Dispatched fires for every event popped from the queue.
	Dispatched(at time.Duration)
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
	at   time.Duration
}

// Cancel prevents the timer's callback from running. It reports whether
// the timer was still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.item == nil || t.gen != t.item.gen || t.item.fn == nil {
		return false
	}
	t.item.fn = nil
	t.item = nil
	e := t.env
	e.cancelled++
	if e.cancelled > len(e.queue)/2 && len(e.queue) >= compactThreshold {
		e.compact()
	}
	return true
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool {
	return t != nil && t.item != nil && t.gen == t.item.gen && t.item.fn != nil
}

// When reports the virtual time at which the timer fires (or fired).
// A nil or zero Timer reports 0.
func (t *Timer) When() time.Duration {
	if t == nil {
		return 0
	}
	return t.at
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
	it := e.newItem(at, fn, nil)
	heap.Push(&e.queue, it)
	*t = Timer{env: e, item: it, gen: it.gen, at: at}
}

// scheduleFn is ScheduleAt without the Timer handle, for internal
// callers that never cancel.
func (e *Env) scheduleFn(delay time.Duration, fn func()) {
	it := e.newItem(e.now+delay, fn, nil)
	heap.Push(&e.queue, it)
}

// scheduleProc queues a handoff to p at Now()+delay without allocating
// a closure or a Timer — the hot path behind Sleep and every wakeup.
func (e *Env) scheduleProc(delay time.Duration, p *Proc) {
	if delay < 0 {
		delay = 0
	}
	it := e.newItem(e.now+delay, nil, p)
	heap.Push(&e.queue, it)
}

// newItem takes a queueItem from the free list (or allocates one) and
// initialises it.
func (e *Env) newItem(at time.Duration, fn func(), p *Proc) *queueItem {
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
	it.fn = fn
	it.proc = p
	return it
}

// release returns an item to the free list, bumping its generation so
// stale Timer handles no longer match.
func (e *Env) release(it *queueItem) {
	it.fn = nil
	it.proc = nil
	it.gen++
	it.next = e.free
	e.free = it
}

// compact rebuilds the heap without its cancelled items, releasing
// them to the pool. Long-lived open-loop runs cancel far more timers
// than they fire (e.g. per-kernel completion timers rescheduled on
// every share change); without compaction those dead items accumulate
// until their deadline is popped.
func (e *Env) compact() {
	live := e.queue[:0]
	for _, it := range e.queue {
		if it.fn == nil && it.proc == nil {
			e.release(it)
		} else {
			live = append(live, it)
		}
	}
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = live
	heap.Init(&e.queue)
	e.cancelled = 0
}

// peek returns the head live item, lazily dropping cancelled items.
func (e *Env) peek() *queueItem {
	for len(e.queue) > 0 {
		it := e.queue[0]
		if it.fn != nil || it.proc != nil {
			return it
		}
		heap.Pop(&e.queue)
		e.cancelled--
		e.release(it)
	}
	return nil
}

// Run drains the event queue, advancing virtual time, until no events
// remain or a failure is recorded. It returns ErrDeadlock (wrapped with
// the blocked proc names) if procs are still parked when the queue
// empties.
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
		it := e.peek()
		if it == nil {
			break
		}
		heap.Pop(&e.queue)
		if it.at > e.now {
			e.now = it.at
		}
		fn, p := it.fn, it.proc
		e.release(it)
		e.dispatched++
		if e.obs != nil {
			e.obs.Dispatched(e.now)
		}
		if fn != nil {
			fn()
		} else {
			e.handoff(p)
		}
	}
	if e.failure != nil {
		return e.failure
	}
	if blocked := e.blockedProcs(); len(blocked) > 0 {
		return fmt.Errorf("%w: %d proc(s) blocked forever: %v", ErrDeadlock, len(blocked), blocked)
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

// queueItem is a pending scheduled callback (fn) or proc handoff
// (proc). Items are pooled via Env.free; gen distinguishes a live item
// from a recycled one holding the same address.
type queueItem struct {
	at   time.Duration
	seq  int64
	gen  uint64
	fn   func()
	proc *Proc
	next *queueItem
}

type eventHeap []*queueItem

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*queueItem)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Proc is a simulated process: a body running on a pooled coroutine
// under scheduler control, blocking in virtual time.
type Proc struct {
	env  *Env
	id   int64
	base string
	name string // formatted lazily from base+id
	// g is the coroutine running the body; nil once the body returned.
	g      *procG
	parked bool
	dead   bool
	daemon bool
	done   Event
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

// SetDaemon marks the proc as a daemon: a parked daemon (e.g. an idle
// worker waiting for tasks) does not count as a deadlock when the
// event queue drains, mirroring daemon-thread semantics.
func (p *Proc) SetDaemon(d bool) { p.daemon = d }

// Spawn starts a new process executing fn. The process begins running
// at the current virtual time (after the caller yields control). The
// returned Proc's Done event fires when fn returns. On a closed Env
// the proc never runs.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	e.nextPID++
	p := &Proc{env: e, id: e.nextPID, base: name}
	e.InitEvent(&p.done, "")
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
	g.fn, g.p = fn, p
	p.g = g
	e.live.push(p)
	if e.obs != nil {
		e.obs.ProcSpawned(p.Name(), e.now)
	}
	e.scheduleProc(0, p)
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
	g := p.g
	if g.next(); g.goexit {
		go g.stop()
	}
}

// park yields control back to the scheduler until somebody resumes p.
// A proc stopped by Close unwinds with a panic that its body recovers;
// so does a deferred call that blocks while it unwinds.
func (p *Proc) park() {
	p.parked = true
	if !p.g.yield(struct{}{}) {
		panic(unwind{})
	}
}

// wake schedules p to resume at the current virtual time.
func (e *Env) wake(p *Proc) { e.scheduleProc(0, p) }

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
	e.queue, e.free, e.cancelled = nil, nil, 0
	e.freeWaiter, e.freeBatches = nil, nil
}

// Env returns the environment the proc runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the proc's unique name ("base#id").
func (p *Proc) Name() string {
	if p.name == "" {
		p.name = fmt.Sprintf("%s#%d", p.base, p.id)
	}
	return p.name
}

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Done returns the event fired when the proc's body returns.
func (p *Proc) Done() *Event { return &p.done }

// Sleep blocks the proc for d of virtual time. Non-positive durations
// yield (the proc re-queues at the current time).
func (p *Proc) Sleep(d time.Duration) {
	p.env.scheduleProc(d, p)
	p.park()
}

// Yield re-queues the proc at the current time, letting other pending
// events at this timestamp run first.
func (p *Proc) Yield() { p.Sleep(0) }
