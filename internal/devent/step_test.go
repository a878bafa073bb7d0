package devent

import (
	"errors"
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
