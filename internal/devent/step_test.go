package devent

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// logStep appends its name to a shared log each time it runs.
type logStep struct {
	name string
	log  *[]string
}

func (s *logStep) Step() { *s.log = append(*s.log, s.name) }

// awaitStep is a Step that awaits its event on its first run and
// counts its resumptions.
type awaitStep struct {
	ev      *Event
	waiting bool
	resumed int
}

func (s *awaitStep) Step() {
	if !s.waiting {
		s.waiting = s.ev.Then(s)
		return
	}
	s.waiting = false
	s.resumed++
}

// Then on a fired event reports false and queues nothing: the caller
// carries on inline, as Wait returns at once.
func TestThenOnFiredEventQueuesNothing(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	ev.Fire(7)
	var log []string
	if ev.Then(&logStep{"s", &log}) {
		t.Fatal("Then on a fired event reported true")
	}
	if n := len(env.queue) + env.ready.len(); n != 0 || env.awaiting != 0 {
		t.Fatalf("queued %d items, %d steps awaiting", n, env.awaiting)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 || env.EventsDispatched() != 0 {
		t.Fatalf("log = %v, %d events dispatched", log, env.EventsDispatched())
	}
}

// A single Step waiter is queued where a proc's wakeup would be: when
// the event fires, behind what was already queued and ahead of anything
// its OnFire callbacks or the firing callback schedule afterwards.
func TestThenSingleWaiterQueuedAtFire(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	var log []string
	if !ev.Then(&logStep{"step", &log}) {
		t.Fatal("Then on an unfired event reported false")
	}
	ev.OnFire(func(*Event) { env.Schedule(0, func() { log = append(log, "onfire") }) })
	env.Schedule(time.Second, func() {
		ev.Fire(nil)
		log = append(log, "fired")
		env.Schedule(0, func() { log = append(log, "after") })
	})
	env.Schedule(time.Second, func() { log = append(log, "queued") })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, " "), "fired queued step onfire after"; got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
	if env.awaiting != 0 {
		t.Fatalf("%d steps still counted as awaiting", env.awaiting)
	}
}

// A fanout of mixed proc and Step waiters resumes them in registration
// order, each Step inline in the batch, ahead of what they schedule.
func TestFanoutMixedWaitersResumeInOrder(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	var log []string
	for i, name := range []string{"p0", "s1", "s2", "p3", "s4"} {
		if name[0] == 's' {
			env.Schedule(time.Duration(i), func() { ev.Then(&logStep{name, &log}) })
			continue
		}
		env.Spawn(name, func(p *Proc) {
			p.Sleep(time.Duration(i))
			p.Wait(ev)
			log = append(log, name)
			env.Schedule(0, func() { log = append(log, "after-"+name) })
		})
	}
	env.Schedule(time.Second, func() { ev.Fire(nil) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, " "), "p0 s1 s2 p3 s4 after-p0 after-p3"; got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// A Step still awaiting an event when the queue drains is a deadlock,
// like a parked proc; so is one beside a parked proc.
func TestAwaitingStepDeadlocks(t *testing.T) {
	env := NewEnv()
	ev := env.NewNamedEvent("never")
	env.ScheduleStep(time.Millisecond, &awaitStep{ev: ev})
	err := env.Run()
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "1 step(s) awaiting") {
		t.Fatalf("err = %v", err)
	}

	env2 := NewEnv()
	ev2 := env2.NewEvent()
	var log []string
	ev2.Then(&logStep{"s", &log})
	env2.Spawn("alpha", func(p *Proc) { p.Wait(env2.NewEvent()) })
	err = env2.Run()
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "alpha") ||
		!strings.Contains(err.Error(), "1 step(s) awaiting") {
		t.Fatalf("err = %v", err)
	}
	env2.Close()
	if len(log) != 0 {
		t.Fatalf("awaiting step ran: %v", log)
	}
}

// recvStep is a Receiver that logs what it receives, and when.
type recvStep struct {
	env *Env
	log []string
}

func (r *recvStep) Receive(v int, ok bool) {
	r.log = append(r.log, fmt.Sprintf("%d,%v@%v", v, ok, r.env.Now()))
}

// A Then whose cancel fired before it registered still registers, and
// the receiver runs once, in a queue slot of its own, with ok false:
// what Get does with the wakeup its park consumes.
func TestQueueThenCancelFiredBeforeRegistration(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	cancel := env.NewEvent()
	cancel.Fire(nil)
	r := &recvStep{env: env}
	if _, ok := q.Then(r, cancel); ok {
		t.Fatal("Then on an empty queue reported a value")
	}
	if len(r.log) != 0 {
		t.Fatalf("receiver ran inline: %v", r.log)
	}
	q.Put(5) // no receiver left: the value waits in the queue
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r.log, " "); got != "0,false@0s" {
		t.Fatalf("received %q, want one cancelled receive", got)
	}
	if env.EventsDispatched() != 1 || q.Len() != 1 || cancel.Listeners() != 0 {
		t.Fatalf("%d events, %d queued, %d listeners", env.EventsDispatched(), q.Len(), cancel.Listeners())
	}
}

// A value queued after the cancel fired is still taken, inline, by
// Then as by Get.
func TestQueueThenTakesValueQueuedAfterCancel(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	cancel := env.NewEvent()
	cancel.Fire(nil)
	q.Put(1)
	q.Put(2)
	r := &recvStep{env: env}
	if v, ok := q.Then(r, cancel); !ok || v != 1 {
		t.Fatalf("Then = %d, %v; want 1, true", v, ok)
	}
	var pv int
	var pok bool
	env.Spawn("getter", func(p *Proc) { pv, pok = q.Get(p, cancel) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if pv != 2 || !pok || len(r.log) != 0 {
		t.Fatalf("Get = %d, %v; receiver log %v", pv, pok, r.log)
	}
}

// relayStep registers again after each receive, on a long-lived cancel
// event, and records how many listeners that event holds as each
// value arrives.
type relayStep struct {
	q         *Queue[int]
	cancel    *Event
	listeners []int
}

func (r *relayStep) Receive(v int, ok bool) {
	r.listeners = append(r.listeners, r.cancel.Listeners())
	r.q.Then(r, r.cancel)
}

// Once a Step receiver has its value it leaves no listener on its
// cancel event, so a receiver that waits on one long-lived event over
// and over holds at most its current registration.
func TestQueueThenDetachesOnReceive(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	r := &relayStep{q: q, cancel: env.NewEvent()}
	q.Then(r, r.cancel)
	for i := 1; i <= 100; i++ {
		env.Schedule(time.Duration(i), func() { q.Put(i) })
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.listeners) != 100 {
		t.Fatalf("%d receives, want 100", len(r.listeners))
	}
	for i, n := range r.listeners {
		if n != 0 {
			t.Fatalf("receive %d saw %d cancel listeners, want 0", i, n)
		}
	}
	if n := r.cancel.Listeners(); n != 1 {
		t.Fatalf("registered receiver holds %d listeners, want 1", n)
	}
}

// A proc made with NewProc starts parked with nothing queued; a Step
// resumes it inline, and a bare Park waits for the next Resume without
// counting as a deadlock once the proc is a daemon. Resume from inside
// a proc panics.
func TestResumeRunsParkedProcInline(t *testing.T) {
	env := NewEnv()
	var log []string
	var p *Proc
	p = env.NewProc("app", func(p *Proc) {
		for i := 0; ; i++ {
			log = append(log, fmt.Sprintf("run%d@%v", i, p.Now()))
			p.Park()
		}
	})
	p.SetDaemon(true)
	if n := len(env.queue) + env.ready.len(); n != 0 {
		t.Fatalf("NewProc queued %d items", n)
	}
	env.Schedule(time.Second, func() {
		p.Resume()
		log = append(log, "after")
	})
	env.Schedule(2*time.Second, p.Resume)
	env.Spawn("other", func(o *Proc) {
		defer func() { log = append(log, fmt.Sprint(recover())) }()
		p.Resume()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := "devent: Resume called from inside a proc run0@1s after run1@2s"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
	if env.Resumes() != 3 {
		t.Fatalf("Resumes = %d, want 3 (two of app, one of other)", env.Resumes())
	}
	env.Close()
}
