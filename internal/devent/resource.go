package devent

// Resource is a counting resource (semaphore) with FIFO granting:
// requests are satisfied strictly in arrival order, so a large request
// at the head blocks later small ones (no starvation).
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waitq    []*resWaiter
}

type resWaiter struct {
	r         *Resource
	p         *Proc
	n         int
	woken     bool
	granted   bool
	cancelled bool
}

// fired is the waiter's cancel listener: it withdraws the request and
// wakes the proc.
func (w *resWaiter) fired(*Event) {
	if w.woken {
		return
	}
	w.woken = true
	w.cancelled = true
	w.r.remove(w)
	w.r.env.wake(w.p)
}

// NewResource returns a resource with the given capacity (units).
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 0 {
		capacity = 0
	}
	return &Resource{env: env, capacity: capacity}
}

// Cap reports the total capacity.
func (r *Resource) Cap() int { return r.capacity }

// InUse reports currently acquired units.
func (r *Resource) InUse() int { return r.inUse }

// Available reports free units.
func (r *Resource) Available() int { return r.capacity - r.inUse }

// Queued reports the number of waiting acquirers.
func (r *Resource) Queued() int {
	n := 0
	for _, w := range r.waitq {
		if !w.woken {
			n++
		}
	}
	return n
}

// Acquire blocks the proc until n units are available and takes them.
// Requesting more than the capacity panics (it could never succeed).
func (r *Resource) Acquire(p *Proc, n int) {
	if !r.AcquireOr(p, n, nil) {
		panic("devent: Acquire failed without cancel event")
	}
}

// AcquireOr is Acquire with an optional cancel event; it reports
// whether the units were acquired (false means cancel fired first).
func (r *Resource) AcquireOr(p *Proc, n int, cancel *Event) bool {
	if n <= 0 {
		return true
	}
	if n > r.capacity {
		panic("devent: Acquire request exceeds resource capacity")
	}
	if len(r.waitq) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	w := &resWaiter{r: r, p: p, n: n}
	r.waitq = append(r.waitq, w)
	var reg registration
	if cancel != nil {
		reg = cancel.listen(w)
	}
	p.park()
	reg.detach()
	return w.granted
}

// TryAcquire takes n units if immediately available (and no earlier
// waiter is queued), reporting success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 {
		return true
	}
	if len(r.waitq) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and grants queued requests in FIFO order.
// Releasing more than is in use panics: it indicates a bookkeeping bug.
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	if n > r.inUse {
		panic("devent: Release of units not acquired")
	}
	r.inUse -= n
	r.grant()
}

func (r *Resource) grant() {
	for len(r.waitq) > 0 {
		w := r.waitq[0]
		if w.woken {
			r.waitq = r.waitq[1:]
			continue
		}
		if r.inUse+w.n > r.capacity {
			return // FIFO: head must be granted first
		}
		r.waitq = r.waitq[1:]
		r.inUse += w.n
		w.woken = true
		w.granted = true
		r.env.wake(w.p)
	}
}

func (r *Resource) remove(w *resWaiter) {
	for i, x := range r.waitq {
		if x == w {
			r.waitq = append(r.waitq[:i], r.waitq[i+1:]...)
			// The head may have changed; try granting.
			r.grant()
			return
		}
	}
}
