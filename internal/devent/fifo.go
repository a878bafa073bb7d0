package devent

// Queue is an unbounded virtual-time FIFO. Put never blocks; each
// value goes to the longest-waiting receiver, a proc parked in Get or a
// Receiver registered with Then, or is queued until one asks. Withdraw
// cancels a Receiver's pending receive.
type Queue[T any] struct {
	env   *Env
	buf   fifo[T]
	recvq fifo[*queueWaiter[T]]
	// free recycles waiters. By the time a waiter is released it has
	// left recvq (popped by Put, or removed by Withdraw), so nothing
	// references it.
	free []*queueWaiter[T]
}

// Receiver is a Step that takes a value from a Queue: Queue.Then
// registers it, and Receive runs in the queue slot where Get would
// wake a parked proc, with ok false when Withdraw cancelled the
// receive. A Receiver is matched by identity, so it must be of
// comparable type (a pointer, say).
type Receiver[T any] interface{ Receive(v T, ok bool) }

// queueWaiter is one pending receive, for a proc (p) or a Receiver
// (r). Put and Withdraw queue the waiter itself as the Step that
// delivers it.
type queueWaiter[T any] struct {
	q   *Queue[T]
	p   *Proc
	r   Receiver[T]
	val T
	ok  bool
}

// Step delivers the receive: it resumes the parked proc, which reads
// its value and releases the waiter in Get, or releases the waiter and
// hands the value to the Receiver.
func (w *queueWaiter[T]) Step() {
	if w.p != nil {
		w.q.env.handoff(w.p)
		return
	}
	r, v, ok := w.r, w.val, w.ok
	w.q.putWaiter(w)
	r.Receive(v, ok)
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
		q.env.ScheduleStep(0, w)
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

// Get takes the oldest queued value, blocking until one arrives.
func (q *Queue[T]) Get(p *Proc) T {
	if v, ok := q.TryGet(); ok {
		return v
	}
	w := q.wait(p, nil)
	p.Park()
	v := w.val
	q.putWaiter(w)
	return v
}

// Then is Get for a Step. It takes the oldest queued value and reports
// it with ok true, registering nothing: the caller carries on inline.
// Otherwise it registers r and reports ok false; r.Receive then runs
// where Get would wake a parked proc, with the value, or with ok false
// once Withdraw cancels the receive. A Receiver still registered when
// Run drains the queue is no deadlock: like an idle daemon, it waits
// for work that may not come.
func (q *Queue[T]) Then(r Receiver[T]) (v T, ok bool) {
	if v, ok := q.TryGet(); ok {
		return v, true
	}
	q.wait(nil, r)
	return v, false
}

// Withdraw cancels r's pending receive, keeping the order of the other
// receivers, and queues r.Receive with ok false in a queue slot of its
// own. It reports false, queueing nothing, when r has no pending
// receive: it never registered, or Put has already handed it a value,
// which arrives with ok true.
func (q *Queue[T]) Withdraw(r Receiver[T]) bool {
	s := &q.recvq
	for i := s.head; i < len(s.s); i++ {
		if w := s.s[i]; w.r == r {
			copy(s.s[i:], s.s[i+1:])
			s.s[len(s.s)-1] = nil
			s.s = s.s[:len(s.s)-1]
			q.env.ScheduleStep(0, w)
			return true
		}
	}
	return false
}

// wait registers a receive for p or r behind the receivers already
// waiting.
func (q *Queue[T]) wait(p *Proc, r Receiver[T]) *queueWaiter[T] {
	var w *queueWaiter[T]
	if n := len(q.free); n > 0 {
		w = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		w = &queueWaiter[T]{}
	}
	*w = queueWaiter[T]{q: q, p: p, r: r}
	q.recvq.push(w)
	return w
}

func (q *Queue[T]) putWaiter(w *queueWaiter[T]) {
	*w = queueWaiter[T]{}
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
