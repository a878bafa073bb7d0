package devent

import "errors"

// Event is a one-shot occurrence carrying a value or an error. Procs
// block on it with Wait, Steps await it with Then, and callbacks attach
// with OnFire. Events fire at most once: firing twice panics (use Fired
// to guard).
type Event struct {
	env   *Env
	fired bool
	value any
	err   error
	// w0 is the inline slot for the common single-waiter case (a proc's
	// handoff or a Step awaiting one future); the slice only
	// materialises on fanout.
	w0      Step
	waiters []Step
	// cbs holds OnFire callbacks in registration order.
	cbs []func(*Event)
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

// collect adds a waiter's Step to the fanout. Only a Step registered
// with Then counts as awaiting; a proc waits as its *handoff.
func (e *Env) collect(f *fanout, s Step) {
	f.steps = append(f.steps, s)
	if _, proc := s.(*handoff); !proc {
		e.awaiting--
	}
}

// NewEvent returns an unfired event bound to the environment.
func (e *Env) NewEvent() *Event {
	ev := new(Event)
	e.InitEvent(ev)
	return ev
}

// InitEvent makes ev, a zero Event embedded in a caller's struct, an
// unfired event of the environment, so an object that owns a one-shot
// event costs one allocation, not two. Initialise each embedded event
// once: events are never recycled.
func (e *Env) InitEvent(ev *Event) { ev.env = e }

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
		err = errors.New("devent: event failed with nil error")
	}
	ev.fire(nil, err)
}

func (ev *Event) fire(v any, err error) {
	if ev.fired {
		panic("devent: event fired twice")
	}
	ev.fired = true
	ev.value = v
	ev.err = err
	env := ev.env
	// Collect the waiters in registration order into a pooled fanout.
	f := env.getFanout()
	if s := ev.w0; s != nil {
		ev.w0 = nil
		env.collect(f, s)
	}
	for _, s := range ev.waiters {
		env.collect(f, s)
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
	for _, cb := range cbs {
		cb(ev)
	}
}

// OnFire registers a callback invoked in sim context when the event
// fires. If the event already fired, the callback runs immediately.
func (ev *Event) OnFire(cb func(*Event)) {
	if ev.fired {
		cb(ev)
		return
	}
	ev.cbs = append(ev.cbs, cb)
}

func (ev *Event) addWaiter(s Step) {
	if ev.w0 == nil {
		ev.w0 = s
		return
	}
	ev.waiters = append(ev.waiters, s)
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
	ev.addWaiter(s)
	ev.env.awaiting++
	return true
}

// Wait blocks the proc until the event fires and returns its value and
// error. If the event already fired it returns immediately.
func (p *Proc) Wait(ev *Event) (any, error) {
	if ev.fired {
		return ev.value, ev.err
	}
	ev.addWaiter((*handoff)(p))
	p.Park()
	return ev.value, ev.err
}
