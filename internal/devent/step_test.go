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
	ev := env.NewEvent()
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

// A receiver withdrawn as soon as it registers, the way a caller that
// is already stopped withdraws, runs once, in a queue slot of its own,
// with ok false: what Get does with the wakeup its park consumes.
func TestQueueThenCancelFiredBeforeRegistration(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	r := &recvStep{env: env}
	if _, ok := q.Then(r); ok {
		t.Fatal("Then on an empty queue reported a value")
	}
	if !q.Withdraw(r) {
		t.Fatal("Withdraw found no pending receive")
	}
	if len(r.log) != 0 {
		t.Fatalf("receiver ran inline: %v", r.log)
	}
	q.Put(5) // no receiver left: the value waits in the queue
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r.log, " "); got != "0,false@0s" {
		t.Fatalf("received %q, want one withdrawn receive", got)
	}
	if env.EventsDispatched() != 1 || q.Len() != 1 {
		t.Fatalf("%d events, %d queued", env.EventsDispatched(), q.Len())
	}
}

// Withdraw cancels one receive, not the receiver: a value queued after
// the withdrawal is still taken, inline, by the stopped caller's next
// Then, as by Get.
func TestQueueThenTakesValueQueuedAfterCancel(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	r := &recvStep{env: env}
	q.Then(r)
	q.Withdraw(r)
	q.Put(1)
	q.Put(2)
	if v, ok := q.Then(r); !ok || v != 1 {
		t.Fatalf("Then = %d, %v; want 1, true", v, ok)
	}
	var pv int
	env.Spawn("getter", func(p *Proc) { pv = q.Get(p) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r.log, " "); pv != 2 || got != "0,false@0s" {
		t.Fatalf("Get = %d; receiver log %q", pv, got)
	}
}

// Withdrawing a receiver with no pending receive reports false and
// queues nothing, whether it never registered or Put has already
// handed it a value, which then arrives with ok true.
func TestQueueWithdrawWithoutPendingReceive(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	idle, taken := &recvStep{env: env}, &recvStep{env: env}
	if q.Withdraw(idle) {
		t.Fatal("Withdraw of an unregistered receiver reported true")
	}
	q.Then(taken)
	q.Put(7)
	if q.Withdraw(taken) {
		t.Fatal("Withdraw after Put took the receiver reported true")
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.EventsDispatched() != 1 || len(idle.log) != 0 {
		t.Fatalf("%d events, unregistered receiver log %v", env.EventsDispatched(), idle.log)
	}
	if got := strings.Join(taken.log, " "); got != "7,true@0s" {
		t.Fatalf("received %q, want the value", got)
	}
}

// Withdraw keeps the other receivers in order: values go to the
// longest-waiting receivers left, and each withdrawal runs in the slot
// it was queued in.
func TestQueueWithdrawKeepsOrder(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var log []string
	rs := make([]*orderRecv, 5)
	for i := range rs {
		rs[i] = &orderRecv{i, &log}
		q.Then(rs[i])
	}
	q.Withdraw(rs[3])
	q.Withdraw(rs[0])
	for v := 1; v <= 3; v++ {
		q.Put(v)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := "r3:0,false r0:0,false r1:1,true r2:2,true r4:3,true"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("received %q, want %q", got, want)
	}
}

// orderRecv logs which receiver got what.
type orderRecv struct {
	i   int
	log *[]string
}

func (r *orderRecv) Receive(v int, ok bool) {
	*r.log = append(*r.log, fmt.Sprintf("r%d:%d,%v", r.i, v, ok))
}

// countRecv counts its receives without allocating.
type countRecv struct{ n int }

func (r *countRecv) Receive(int, bool) { r.n++ }

// A steady Then/Withdraw cycle allocates nothing: the waiter and the
// queue item that delivers the withdrawal are both recycled.
func TestQueueThenWithdrawAllocs(t *testing.T) {
	const runs = 100
	env := NewEnv()
	q := NewQueue[int](env)
	r := &countRecv{}
	var allocs float64
	env.Spawn("stopper", func(p *Proc) {
		allocs = testing.AllocsPerRun(runs, func() {
			q.Then(r)
			q.Withdraw(r)
			p.Sleep(0) // the withdrawn receive runs first
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if r.n != runs+1 || allocs != 0 { // AllocsPerRun adds a warm-up run
		t.Fatalf("%d receives, %v allocs per cycle; want %d, 0", r.n, allocs, runs+1)
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
