package devent

import (
	"testing"
	"time"
)

// countingObserver records hook invocations and the virtual time of
// the last one.
type countingObserver struct {
	env                         *Env
	spawned, exited, dispatched int
	lastAt                      time.Duration
}

func (o *countingObserver) ProcSpawned() { o.spawned++; o.lastAt = o.env.Now() }
func (o *countingObserver) ProcExited()  { o.exited++; o.lastAt = o.env.Now() }
func (o *countingObserver) Dispatched()  { o.dispatched++; o.lastAt = o.env.Now() }

func TestObserverHooks(t *testing.T) {
	env := NewEnv()
	o := countingObserver{env: env}
	env.SetObserver(&o)
	env.Spawn("a", func(p *Proc) {
		p.Sleep(time.Second)
		env.Spawn("b", func(p *Proc) { p.Sleep(time.Second) })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if o.spawned != 2 || o.exited != 2 {
		t.Errorf("spawned=%d exited=%d", o.spawned, o.exited)
	}
	if o.dispatched == 0 {
		t.Error("no dispatch events observed")
	}
	if o.lastAt != 2*time.Second {
		t.Errorf("last hook at %v", o.lastAt)
	}
}

func TestObserverNilIsDefault(t *testing.T) {
	// No observer installed: the env runs exactly as before.
	env := NewEnv()
	ran := false
	env.Spawn("p", func(p *Proc) { p.Sleep(time.Millisecond); ran = true })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("proc did not run")
	}
}
