package devent

import (
	"fmt"
	"time"
)

// Event is a one-shot occurrence carrying a value or an error. Procs
// block on it with Wait; callbacks attach with OnFire. Events fire at
// most once: firing twice panics (use Fired to guard).
type Event struct {
	env   *Env
	name  string
	fired bool
	value any
	err   error
	// w0 is the inline slot for the common single-waiter case (a proc
	// awaiting one future); the slice only materialises on fanout.
	w0      *eventWaiter
	waiters []*eventWaiter
	// cbs holds OnFire listeners in registration order. A detached
	// listener leaves a nil slot (counted in dead) until the slice is
	// compacted; seq numbers the registrations so a detach finds its
	// slot after compaction moved it.
	cbs  []callback
	seq  uint64
	dead int
}

// listener is the closure-free form of an OnFire callback: blocking
// ops register their pooled waiter itself, so a cancellable wait
// allocates nothing.
type listener interface{ fired(*Event) }

// funcListener adapts an OnFire func to a listener.
type funcListener func(*Event)

func (f funcListener) fired(ev *Event) { f(ev) }

type callback struct {
	l   listener
	seq uint64
}

// registration is a detachable OnFire listener. Operations that wait
// on a long-lived cancel event (Chan.RecvOr, Resource.AcquireOr,
// AnyOf) detach theirs once they return or fire, so the event holds
// no more listeners than it has live waiters. The zero registration
// (from an event that had already fired) detaches as a no-op.
type registration struct {
	ev  *Event
	seq uint64
}

// listen registers l, running it at once if the event already fired.
func (ev *Event) listen(l listener) registration {
	if ev.fired {
		l.fired(ev)
		return registration{}
	}
	ev.seq++
	ev.cbs = append(ev.cbs, callback{l, ev.seq})
	return registration{ev, ev.seq}
}

// detach removes the listener unless the event fired (which consumed
// it). Slots are freed lazily: once half of them are dead the slice is
// compacted in place, keeping registration order.
func (r registration) detach() {
	ev := r.ev
	if ev == nil || ev.fired {
		return
	}
	lo, hi := 0, len(ev.cbs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ev.cbs[m].seq < r.seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(ev.cbs) || ev.cbs[lo].seq != r.seq || ev.cbs[lo].l == nil {
		return
	}
	ev.cbs[lo].l = nil
	ev.dead++
	if 2*ev.dead >= len(ev.cbs) {
		live := ev.cbs[:0]
		for _, c := range ev.cbs {
			if c.l != nil {
				live = append(live, c)
			}
		}
		clear(ev.cbs[len(live):])
		ev.cbs = live
		ev.dead = 0
	}
}

// Listeners reports how many OnFire slots the event holds, detached
// ones not yet compacted included; compaction keeps it at most twice
// the live listeners. Tests bound it to catch registration leaks.
func (ev *Event) Listeners() int { return len(ev.cbs) }

// eventWaiter links one parked proc to the event it awaits. Waiters
// are pooled on the Env (getWaiter/putWaiter). A waiter with ev set is
// owned by WaitTimeout, which releases it itself after the proc
// resumes, having cancelled the timer unless it fired; it keeps its
// timer and timeout callback (bound the first time it is timed) across
// reuses, so a timed wait allocates nothing.
type eventWaiter struct {
	p         *Proc
	woken     bool
	timedOut  bool
	ev        *Event
	timer     Timer
	onTimeout func()
	next      *eventWaiter
}

func (e *Env) getWaiter(p *Proc) *eventWaiter {
	w := e.freeWaiter
	if w != nil {
		e.freeWaiter = w.next
		w.next = nil
	} else {
		w = &eventWaiter{}
	}
	w.p = p
	w.woken, w.timedOut = false, false
	return w
}

func (e *Env) putWaiter(w *eventWaiter) {
	w.p, w.ev = nil, nil
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
	w.p.env.wake(w.p)
}

// getBatch pops a pooled proc buffer for fanout wakeups.
func (e *Env) getBatch() []*Proc {
	if n := len(e.freeBatches); n > 0 {
		b := e.freeBatches[n-1]
		e.freeBatches = e.freeBatches[:n-1]
		return b
	}
	return make([]*Proc, 0, 8)
}

func (e *Env) putBatch(b []*Proc) {
	for i := range b {
		b[i] = nil
	}
	e.freeBatches = append(e.freeBatches, b[:0])
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
	// Collect live waiters in registration order into a pooled batch.
	// Plain Wait waiters return to the pool here (their proc never
	// touches them after parking); timed waiters (ev set) are released
	// by WaitTimeout once the proc resumes.
	batch := env.getBatch()
	if w := ev.w0; w != nil {
		ev.w0 = nil
		if !w.woken {
			w.woken = true
			batch = append(batch, w.p)
			if w.ev == nil {
				env.putWaiter(w)
			}
		}
	}
	for _, w := range ev.waiters {
		if !w.woken {
			w.woken = true
			batch = append(batch, w.p)
			if w.ev == nil {
				env.putWaiter(w)
			}
		}
	}
	ev.waiters = nil
	// Batch the fanout: waking N waiters individually costs N queue
	// items; instead hand off to each in order from a single scheduled
	// callback. Each waiter was queued before any of them runs, so the
	// relative order — waiters in registration order, ahead of anything
	// they schedule — is the same as with per-waiter wakeups.
	switch len(batch) {
	case 0:
		env.putBatch(batch)
	case 1:
		p := batch[0]
		env.putBatch(batch)
		env.wake(p)
	default:
		env.scheduleFn(0, func() {
			for _, p := range batch {
				env.handoff(p)
			}
			env.putBatch(batch)
		})
	}
	cbs := ev.cbs
	ev.cbs = nil
	ev.dead = 0
	for _, cb := range cbs {
		if cb.l != nil {
			cb.l.fired(ev)
		}
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

// Wait blocks the proc until the event fires and returns its value and
// error. If the event already fired it returns immediately.
func (p *Proc) Wait(ev *Event) (any, error) {
	if ev.fired {
		return ev.value, ev.err
	}
	w := p.env.getWaiter(p)
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
	w := e.getWaiter(p)
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

// AnyOf returns an event that fires as soon as any input event fires;
// its value is the first firing *Event (inspect its Value/Err). With no
// inputs the result never fires. Once it fires it detaches from the
// other inputs; until then it stays registered on all of them, so a
// loop waiting on long-lived events builds its AnyOf once, not once
// per pass.
func AnyOf(e *Env, evs ...*Event) *Event {
	a := &anyOf{out: e.NewNamedEvent("anyOf"), regs: make([]registration, 0, len(evs))}
	for _, ev := range evs {
		a.regs = append(a.regs, ev.listen(a))
		if a.out.fired {
			break
		}
	}
	return a.out
}

// anyOf is AnyOf's listener on each of its inputs.
type anyOf struct {
	out  *Event
	regs []registration
}

func (a *anyOf) fired(src *Event) {
	if a.out.fired {
		return
	}
	for _, r := range a.regs {
		r.detach()
	}
	a.regs = nil
	a.out.Fire(src)
}

// AllOf returns an event that fires once every input event has fired;
// its value is a []*Event of the inputs in argument order. If any input
// fails, the output fails with the first such error (but still only
// after all inputs complete). With no inputs it fires immediately.
func AllOf(e *Env, evs ...*Event) *Event {
	out := e.NewNamedEvent("allOf")
	remaining := len(evs)
	if remaining == 0 {
		out.Fire([]*Event{})
		return out
	}
	for _, ev := range evs {
		ev.OnFire(func(*Event) {
			remaining--
			if remaining == 0 {
				for _, in := range evs {
					if in.err != nil {
						out.Fail(in.err)
						return
					}
				}
				out.Fire(append([]*Event(nil), evs...))
			}
		})
	}
	return out
}
