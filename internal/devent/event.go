package devent

import (
	"fmt"
	"time"
)

// Event is a one-shot occurrence carrying a value or an error. Procs
// block on it with Wait, Steps await it with Then, and callbacks attach
// with OnFire. Events fire at most once: firing twice panics (use Fired
// to guard).
type Event struct {
	env   *Env
	name  string
	fired bool
	value any
	err   error
	// w0 is the inline slot for the common single-waiter case (a proc
	// or Step awaiting one future); the slice only materialises on
	// fanout.
	w0      *eventWaiter
	waiters []*eventWaiter
	// cbs holds OnFire listeners in registration order.
	cbs []listener
}

// listener is the closure-free form of an OnFire callback: blocking
// ops register their pooled waiter itself, so a cancellable wait
// allocates nothing.
type listener interface{ fired(*Event) }

// funcListener adapts an OnFire func to a listener.
type funcListener func(*Event)

func (f funcListener) fired(ev *Event) { f(ev) }

// registration is a detachable OnFire listener. Queue.Get, which waits
// on a long-lived cancel event, detaches its listener once it returns,
// so the event holds no more listeners than it has live waiters. Only
// listeners of comparable type (pointers) detach. The zero
// registration (from an event that had already fired) detaches as a
// no-op.
type registration struct {
	ev *Event
	l  listener
}

// listen registers l, running it at once if the event already fired.
func (ev *Event) listen(l listener) registration {
	if ev.fired {
		l.fired(ev)
		return registration{}
	}
	ev.cbs = append(ev.cbs, l)
	return registration{ev, l}
}

// detach removes the listener, keeping the order of the rest, unless
// the event fired (which consumed it). The scan runs backwards: the
// listener detaching is usually the newest.
func (r registration) detach() {
	if r.ev == nil {
		return
	}
	cbs := r.ev.cbs
	for i := len(cbs) - 1; i >= 0; i-- {
		if cbs[i] == r.l {
			r.ev.cbs = append(cbs[:i], cbs[i+1:]...)
			cbs[len(cbs)-1] = nil
			return
		}
	}
}

// Listeners reports how many OnFire listeners the event holds. Tests
// bound it to catch registration leaks.
func (ev *Event) Listeners() int { return len(ev.cbs) }

// eventWaiter links one Step — a parked proc's handoff, or a Step
// registered with Then — to the event it awaits. Waiters are pooled on
// the Env (getWaiter/putWaiter). A waiter with ev set is owned by
// WaitTimeout, which releases it itself after the proc resumes, having
// cancelled the timer unless it fired; it keeps its timer and timeout
// callback (bound the first time it is timed) across reuses, so a
// timed wait allocates nothing.
type eventWaiter struct {
	s         Step
	woken     bool
	timedOut  bool
	ev        *Event
	timer     Timer
	onTimeout func()
	next      *eventWaiter
}

func (e *Env) getWaiter(s Step) *eventWaiter {
	w := e.freeWaiter
	if w != nil {
		e.freeWaiter = w.next
		w.next = nil
	} else {
		w = &eventWaiter{}
	}
	w.s = s
	w.woken, w.timedOut = false, false
	return w
}

func (e *Env) putWaiter(w *eventWaiter) {
	w.s, w.ev = nil, nil
	w.next = e.freeWaiter
	e.freeWaiter = w
}

// timeout is a timed waiter's timer callback.
func (w *eventWaiter) timeout() {
	if w.woken {
		return
	}
	w.woken = true
	w.timedOut = true
	w.ev.removeWaiter(w)
	w.ev.env.ScheduleStep(0, w.s)
}

// fanout is a multi-waiter fire's batch: one queued Step that runs each
// fired waiter's Step in registration order. Fanouts are pooled on the
// Env and keep their buffer across reuses.
type fanout struct {
	env   *Env
	steps []Step
	next  *fanout
}

func (f *fanout) Step() {
	for _, s := range f.steps {
		s.Step()
	}
	f.put()
}

// getFanout pops a pooled fanout, or allocates one.
func (e *Env) getFanout() *fanout {
	f := e.freeFanout
	if f == nil {
		return &fanout{env: e, steps: make([]Step, 0, 8)}
	}
	e.freeFanout, f.next = f.next, nil
	return f
}

func (f *fanout) put() {
	clear(f.steps)
	f.steps = f.steps[:0]
	f.next, f.env.freeFanout = f.env.freeFanout, f
}

// collect adds w's Step to the fanout unless a timeout already woke
// it. Plain Wait waiters and Step waiters return to the pool here
// (nothing touches them after they are registered); timed waiters (ev
// set) are released by WaitTimeout once the proc resumes. Only a Step
// registered with Then counts as awaiting.
func (e *Env) collect(f *fanout, w *eventWaiter) {
	if w.woken {
		return
	}
	w.woken = true
	f.steps = append(f.steps, w.s)
	if _, proc := w.s.(*handoff); !proc {
		e.awaiting--
	}
	if w.ev == nil {
		e.putWaiter(w)
	}
}

// NewEvent returns an unfired event bound to the environment.
func (e *Env) NewEvent() *Event { return e.NewNamedEvent("") }

// NewNamedEvent returns an unfired event with a diagnostic name.
func (e *Env) NewNamedEvent(name string) *Event {
	ev := new(Event)
	e.InitEvent(ev, name)
	return ev
}

// InitEvent makes ev, a zero Event embedded in a caller's struct, an
// unfired event of the environment with a diagnostic name, so an object
// that owns a one-shot event costs one allocation, not two. Initialise
// each embedded event once: events are never recycled.
func (e *Env) InitEvent(ev *Event, name string) {
	ev.env, ev.name = e, name
}

// Fired reports whether the event has fired (successfully or not).
func (ev *Event) Fired() bool { return ev.fired }

// Value returns the value the event fired with (nil before firing or
// after Fail).
func (ev *Event) Value() any { return ev.value }

// Err returns the error the event failed with, or nil.
func (ev *Event) Err() error { return ev.err }

// Fire completes the event successfully with value v, waking all
// waiters and running callbacks. Firing a fired event panics.
func (ev *Event) Fire(v any) { ev.fire(v, nil) }

// Fail completes the event with an error, waking all waiters and
// running callbacks. Failing a fired event panics.
func (ev *Event) Fail(err error) {
	if err == nil {
		err = fmt.Errorf("devent: event %q failed with nil error", ev.name)
	}
	ev.fire(nil, err)
}

func (ev *Event) fire(v any, err error) {
	if ev.fired {
		panic(fmt.Sprintf("devent: event %q fired twice", ev.name))
	}
	ev.fired = true
	ev.value = v
	ev.err = err
	env := ev.env
	// Collect live waiters in registration order into a pooled fanout.
	f := env.getFanout()
	if w := ev.w0; w != nil {
		ev.w0 = nil
		env.collect(f, w)
	}
	for _, w := range ev.waiters {
		env.collect(f, w)
	}
	ev.waiters = nil
	// Batch the fanout: waking N waiters individually costs N queue
	// items; instead queue the fanout itself, which runs each waiter's
	// Step in order. Each waiter was queued before any of them runs,
	// so the relative order — waiters in registration order, ahead of
	// anything they schedule — is the same as with per-waiter wakeups.
	switch len(f.steps) {
	case 0:
		f.put()
	case 1:
		s := f.steps[0]
		f.put()
		env.ScheduleStep(0, s)
	default:
		env.ScheduleStep(0, f)
	}
	cbs := ev.cbs
	ev.cbs = nil
	for _, l := range cbs {
		l.fired(ev)
	}
}

// OnFire registers a callback invoked in sim context when the event
// fires. If the event already fired, the callback runs immediately.
func (ev *Event) OnFire(cb func(*Event)) { ev.listen(funcListener(cb)) }

func (ev *Event) addWaiter(w *eventWaiter) {
	if ev.w0 == nil && len(ev.waiters) == 0 {
		ev.w0 = w
		return
	}
	ev.waiters = append(ev.waiters, w)
}

func (ev *Event) removeWaiter(w *eventWaiter) {
	if ev.w0 == w {
		ev.w0 = nil
		return
	}
	for i, x := range ev.waiters {
		if x == w {
			ev.waiters = append(ev.waiters[:i], ev.waiters[i+1:]...)
			return
		}
	}
}

// Then registers s to run once the event fires, queued exactly where a
// proc parked in Wait would be woken, and reports true. If the event
// already fired it queues nothing and reports false: the caller reads
// Value and Err and carries on inline, as Wait returns at once. A Step
// still registered when Run drains the queue is a deadlock.
func (ev *Event) Then(s Step) bool {
	if ev.fired {
		return false
	}
	e := ev.env
	w := e.getWaiter(s)
	ev.addWaiter(w)
	e.awaiting++
	return true
}

// Wait blocks the proc until the event fires and returns its value and
// error. If the event already fired it returns immediately.
func (p *Proc) Wait(ev *Event) (any, error) {
	if ev.fired {
		return ev.value, ev.err
	}
	w := p.env.getWaiter((*handoff)(p))
	ev.addWaiter(w)
	p.park()
	return ev.value, ev.err
}

// WaitTimeout blocks until the event fires or d elapses. On timeout it
// returns (nil, ErrTimeout) and the proc is no longer waiting.
func (p *Proc) WaitTimeout(ev *Event, d time.Duration) (any, error) {
	if ev.fired {
		return ev.value, ev.err
	}
	e := p.env
	w := e.getWaiter((*handoff)(p))
	w.ev = ev
	if w.onTimeout == nil {
		w.onTimeout = w.timeout
	}
	ev.addWaiter(w)
	e.ArmAt(&w.timer, e.now+d, w.onTimeout)
	p.park()
	timedOut := w.timedOut
	e.putWaiter(w)
	if timedOut {
		return nil, ErrTimeout
	}
	w.timer.Cancel()
	return ev.value, ev.err
}
