package devent

// Chan is a virtual-time channel with Go-channel semantics: unbuffered
// channels rendezvous, buffered channels queue up to cap values, Recv
// on a closed drained channel returns the zero value and ok=false, and
// Send on a closed channel panics.
type Chan[T any] struct {
	env    *Env
	cap    int
	buf    fifo[T]
	sendq  fifo[*chanWaiter[T]]
	recvq  fifo[*chanWaiter[T]]
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
		removeWaiter(&w.c.sendq, w)
	} else {
		removeWaiter(&w.c.recvq, w)
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
func (c *Chan[T]) Len() int { return c.buf.len() }

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
		c.sendq.push(w)
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
	if c.buf.len() < c.cap {
		c.buf.push(v)
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
	c.recvq.push(w)
	c.park(w, cancel)
	v, ok, cancelled = w.val, w.ok, w.cancelled
	c.putWaiter(w)
	return v, ok, cancelled
}

// TryRecv receives without blocking; ok is false when nothing was
// available.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.buf.len() > 0 {
		v = c.buf.pop()
		// A blocked sender can now occupy the freed slot (or, for an
		// unbuffered channel, this branch never runs).
		if w := c.popSend(); w != nil {
			c.buf.push(w.val)
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
	for _, w := range c.recvq.s[c.recvq.head:] {
		if !w.woken {
			w.woken = true
			w.ok = false
			c.env.wake(w.p)
		}
	}
	c.recvq = fifo[*chanWaiter[T]]{}
	for _, w := range c.sendq.s[c.sendq.head:] {
		if !w.woken {
			w.woken = true
			w.ok = false
			c.env.wake(w.p)
		}
	}
	c.sendq = fifo[*chanWaiter[T]]{}
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

func (c *Chan[T]) popRecv() *chanWaiter[T] { return popLive(&c.recvq) }

func (c *Chan[T]) popSend() *chanWaiter[T] { return popLive(&c.sendq) }

// popLive pops waiters until one not yet woken, or returns nil.
func popLive[T any](q *fifo[*chanWaiter[T]]) *chanWaiter[T] {
	for q.len() > 0 {
		if w := q.pop(); !w.woken {
			return w
		}
	}
	return nil
}

// fifo is a queue over a slice that keeps its backing array: a pop
// advances head, and a push into a full array whose front half is
// popped slides the values down instead of growing it. A queue whose
// length stays bounded therefore stops allocating.
type fifo[T any] struct {
	s    []T
	head int
}

func (q *fifo[T]) len() int { return len(q.s) - q.head }

func (q *fifo[T]) push(v T) {
	if len(q.s) == cap(q.s) && 2*q.head >= len(q.s) {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, v)
}

func (q *fifo[T]) pop() T {
	var zero T
	v := q.s[q.head]
	q.s[q.head] = zero
	if q.head++; q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
	return v
}

// removeWaiter deletes w from q, keeping the order of the rest.
func removeWaiter[T any](q *fifo[*chanWaiter[T]], w *chanWaiter[T]) {
	for i := q.head; i < len(q.s); i++ {
		if q.s[i] == w {
			copy(q.s[i:], q.s[i+1:])
			q.s[len(q.s)-1] = nil
			q.s = q.s[:len(q.s)-1]
			return
		}
	}
}
