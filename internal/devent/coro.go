//go:build go1.23

package devent

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// procG is a coroutine that runs proc bodies: handoff resumes it with
// next, park suspends it with yield, and Close unwinds it with stop.
// When a body returns the coroutine (with its grown stack) waits in the
// Env's idle pool for the next Spawn instead of ending.
type procG struct {
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	body   func(*Proc)
	p      *Proc
	link   *procG // idle pool link
	goexit bool   // the body called runtime.Goexit (see body)
}

// maxIdle caps the idle pool above the scenarios' steady spawn churn
// (at most 101 idle), so a burst of exits (up to 808) ends the surplus
// coroutines instead of holding their stacks. A new coroutine costs 11
// allocations, a pooled one none.
const maxIdle = 128

// unwind is the panic with which park unwinds a proc that Close stops.
type unwind struct{}

func (e *Env) newProcG() *procG {
	g := &procG{}
	g.next, g.stop = iter.Pull(func(yield func(struct{}) bool) {
		g.yield = yield
		for {
			e.body(g)
			g.body, g.p = nil, nil
			if e.closed || e.nidle >= maxIdle {
				return
			}
			g.link, e.idle = e.idle, g
			e.nidle++
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return g
}

// body runs g's body as its proc, recovering a panic into an Env
// failure. When Close unwinds a parked proc, the unwind panic ends up
// here and is dropped, as is a panic in one of the body's deferred
// calls, since every result has been read by then: the unwound proc
// reports no exit. A body that calls runtime.Goexit itself (t.Fatal in
// a test) exits like one that returns, then yields from the middle of
// its Goexit for handoff to finish the coroutine off the scheduler:
// iter.Pull re-raises a Goexit in whoever resumes it.
func (e *Env) body(g *procG) {
	p := g.p
	returned := false
	defer func() {
		r := recover()
		if e.closed {
			return
		}
		if r != nil {
			e.Fail(fmt.Errorf("devent: proc %s panicked: %v\n%s", p.Name(), r, debug.Stack()))
		}
		p.dead = true
		p.g = nil
		e.live.remove(p)
		if e.obs != nil {
			e.obs.ProcExited()
		}
		if r == nil && !returned {
			g.goexit = true
			g.yield(struct{}{})
		}
	}()
	g.body(p)
	returned = true
}
