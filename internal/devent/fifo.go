package devent

// Queue is an unbounded virtual-time FIFO. Put never blocks; Get hands
// each value to the longest-waiting receiver, or parks the proc until
// a value arrives or its cancel event fires.
type Queue[T any] struct {
	env   *Env
	buf   fifo[T]
	recvq fifo[*queueWaiter[T]]
	// free recycles waiters. By the time Get returns its waiter has
	// left recvq (popped by Put, or removed by the cancel) and its
	// cancel listener has detached, so nothing references it.
	free []*queueWaiter[T]
}

type queueWaiter[T any] struct {
	q     *Queue[T]
	p     *Proc
	val   T
	ok    bool
	woken bool
}

// fired is the waiter's cancel listener: it withdraws the pending Get
// and wakes the proc.
func (w *queueWaiter[T]) fired(*Event) {
	if w.woken {
		return
	}
	w.woken = true
	removeWaiter(&w.q.recvq, w)
	w.q.env.wake(w.p)
}

// NewQueue returns an empty queue.
func NewQueue[T any](env *Env) *Queue[T] { return &Queue[T]{env: env} }

// Len reports the number of queued values.
func (q *Queue[T]) Len() int { return q.buf.len() }

// Put hands v to the longest-waiting receiver, or queues it.
func (q *Queue[T]) Put(v T) {
	if q.recvq.len() > 0 {
		w := q.recvq.pop()
		w.val, w.ok = v, true
		w.woken = true
		q.env.wake(w.p)
		return
	}
	q.buf.push(v)
}

// TryGet takes the oldest queued value without blocking; ok is false
// when the queue is empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.buf.len() == 0 {
		return v, false
	}
	return q.buf.pop(), true
}

// Get takes the oldest queued value, blocking until one arrives. A
// non-nil cancel withdraws the wait when it fires; ok is false only
// then. A queued value is taken even if cancel has already fired.
func (q *Queue[T]) Get(p *Proc, cancel *Event) (v T, ok bool) {
	if v, ok := q.TryGet(); ok {
		return v, true
	}
	w := q.getWaiter(p)
	q.recvq.push(w)
	// If cancel has already fired, listen runs the listener at once,
	// which schedules the wake the park consumes: the same path as a
	// later cancellation.
	var reg registration
	if cancel != nil {
		reg = cancel.listen(w)
	}
	p.park()
	reg.detach()
	v, ok = w.val, w.ok
	q.putWaiter(w)
	return v, ok
}

// getWaiter takes a pooled waiter, or allocates one.
func (q *Queue[T]) getWaiter(p *Proc) *queueWaiter[T] {
	if n := len(q.free); n > 0 {
		w := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		*w = queueWaiter[T]{q: q, p: p}
		return w
	}
	return &queueWaiter[T]{q: q, p: p}
}

func (q *Queue[T]) putWaiter(w *queueWaiter[T]) {
	var zero T
	w.p, w.val = nil, zero
	q.free = append(q.free, w)
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
func removeWaiter[T any](q *fifo[*queueWaiter[T]], w *queueWaiter[T]) {
	for i := q.head; i < len(q.s); i++ {
		if q.s[i] == w {
			copy(q.s[i:], q.s[i+1:])
			q.s[len(q.s)-1] = nil
			q.s = q.s[:len(q.s)-1]
			return
		}
	}
}
