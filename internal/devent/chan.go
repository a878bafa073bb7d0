package devent

// Chan is a virtual-time channel with Go-channel semantics: unbuffered
// channels rendezvous, buffered channels queue up to cap values, Recv
// on a closed drained channel returns the zero value and ok=false, and
// Send on a closed channel panics.
type Chan[T any] struct {
	env    *Env
	cap    int
	buf    []T
	sendq  []*chanWaiter[T]
	recvq  []*chanWaiter[T]
	closed bool
	// free recycles waiters. By the time an op returns its waiter has
	// left the queues (popped, deregistered, or dropped by Close) and
	// its cancel listener has detached, so nothing references it.
	free []*chanWaiter[T]
}

type chanWaiter[T any] struct {
	c         *Chan[T]
	p         *Proc
	val       T
	ok        bool
	send      bool
	woken     bool
	cancelled bool
}

// fired is the waiter's cancel listener: it withdraws the pending op
// and wakes the proc.
func (w *chanWaiter[T]) fired(*Event) {
	if w.woken {
		return
	}
	w.woken = true
	w.cancelled = true
	if w.send {
		w.c.sendq = removeWaiter(w.c.sendq, w)
	} else {
		w.c.recvq = removeWaiter(w.c.recvq, w)
	}
	w.c.env.wake(w.p)
}

// NewChan returns a channel with the given buffer capacity (0 for an
// unbuffered, rendezvous channel).
func NewChan[T any](env *Env, capacity int) *Chan[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Chan[T]{env: env, cap: capacity}
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Cap reports the buffer capacity.
func (c *Chan[T]) Cap() int { return c.cap }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Send delivers v, blocking the proc until a receiver or buffer slot is
// available. Sending on a closed channel, or on one closed while the
// sender waits, panics, mirroring Go.
func (c *Chan[T]) Send(p *Proc, v T) {
	ok := !c.closed
	if ok && !c.trySend(v) {
		w := c.getWaiter(p)
		w.val, w.send = v, true
		c.sendq = append(c.sendq, w)
		c.park(w, nil)
		ok = w.ok
		c.putWaiter(w)
	}
	if !ok {
		panic("devent: send on closed channel")
	}
}

// TrySend delivers v without blocking. It reports whether the value was
// accepted (a waiting receiver or free buffer slot existed).
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		return false
	}
	return c.trySend(v)
}

func (c *Chan[T]) trySend(v T) bool {
	if w := c.popRecv(); w != nil {
		w.val, w.ok = v, true
		w.woken = true
		c.env.wake(w.p)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Recv blocks until a value is available. ok is false when the channel
// is closed and drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	v, ok, _ = c.RecvOr(p, nil)
	return v, ok
}

// RecvOr is Recv with an optional cancel event. cancelled is true when
// cancel fired before a value arrived; in that case ok is false.
func (c *Chan[T]) RecvOr(p *Proc, cancel *Event) (v T, ok bool, cancelled bool) {
	if v, ok := c.TryRecv(); ok {
		return v, true, false
	}
	if c.closed {
		var zero T
		return zero, false, false
	}
	w := c.getWaiter(p)
	c.recvq = append(c.recvq, w)
	c.park(w, cancel)
	v, ok, cancelled = w.val, w.ok, w.cancelled
	c.putWaiter(w)
	return v, ok, cancelled
}

// TryRecv receives without blocking; ok is false when nothing was
// available.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		// A blocked sender can now occupy the freed slot (or, for an
		// unbuffered channel, this branch never runs).
		if w := c.popSend(); w != nil {
			c.buf = append(c.buf, w.val)
			w.ok = true
			w.woken = true
			c.env.wake(w.p)
		}
		return v, true
	}
	if w := c.popSend(); w != nil { // unbuffered rendezvous
		w.ok = true
		w.woken = true
		c.env.wake(w.p)
		return w.val, true
	}
	var zero T
	return zero, false
}

// Close marks the channel closed. Blocked receivers wake with ok=false;
// blocked senders wake with delivery failure. Closing twice panics.
func (c *Chan[T]) Close() {
	if c.closed {
		panic("devent: close of closed channel")
	}
	c.closed = true
	for _, w := range c.recvq {
		if !w.woken {
			w.woken = true
			w.ok = false
			c.env.wake(w.p)
		}
	}
	c.recvq = nil
	for _, w := range c.sendq {
		if !w.woken {
			w.woken = true
			w.ok = false
			c.env.wake(w.p)
		}
	}
	c.sendq = nil
}

// park blocks w's proc until the op completes or cancel fires. If
// cancel has already fired, listen runs the listener at once, which
// schedules the wake the park consumes — the same path as a later
// cancellation.
func (c *Chan[T]) park(w *chanWaiter[T], cancel *Event) {
	var reg registration
	if cancel != nil {
		reg = cancel.listen(w)
	}
	w.p.park()
	reg.detach()
}

// getWaiter takes a pooled waiter, or allocates one.
func (c *Chan[T]) getWaiter(p *Proc) *chanWaiter[T] {
	if n := len(c.free); n > 0 {
		w := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		*w = chanWaiter[T]{c: c, p: p}
		return w
	}
	return &chanWaiter[T]{c: c, p: p}
}

func (c *Chan[T]) putWaiter(w *chanWaiter[T]) {
	var zero T
	w.p, w.val = nil, zero
	c.free = append(c.free, w)
}

func (c *Chan[T]) popRecv() *chanWaiter[T] {
	for len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		if !w.woken {
			return w
		}
	}
	return nil
}

func (c *Chan[T]) popSend() *chanWaiter[T] {
	for len(c.sendq) > 0 {
		w := c.sendq[0]
		c.sendq = c.sendq[1:]
		if !w.woken {
			return w
		}
	}
	return nil
}

func removeWaiter[T any](q []*chanWaiter[T], w *chanWaiter[T]) []*chanWaiter[T] {
	for i, x := range q {
		if x == w {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}
