package fault

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=3,rate=0.5,pfail=0.05,kinds=worker+gpu,after=1s,until=30s,max=10")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Seed: 3, Rate: 0.5, SubmitFailProb: 0.05,
		Kinds: []Kind{KindGPU, KindWorker}, // sorted
		After: time.Second, Until: 30 * time.Second,
		MaxFaults: 10,
	}
	if spec.Seed != want.Seed || spec.Rate != want.Rate || spec.SubmitFailProb != want.SubmitFailProb ||
		spec.After != want.After || spec.Until != want.Until ||
		spec.MaxFaults != want.MaxFaults {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if len(spec.Kinds) != 2 || spec.Kinds[0] != KindGPU || spec.Kinds[1] != KindWorker {
		t.Fatalf("kinds = %v", spec.Kinds)
	}
	if _, err := ParseSpec(""); err != nil {
		t.Fatalf("empty spec rejected: %v", err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"rate",              // no value
		"rate=",             // empty value
		"rate=fast",         // not a float
		"rate=-1",           // negative
		"pfail=1.5",         // above 1
		"pfail=NaN",         // NaN
		"kinds=worker+disk", // unknown kind
		"kinds=endpoint",    // unknown kind
		"kinds=gpu+gpu",     // duplicate kind
		"after=2s,until=1s", // until before after
		"max=-3",            // negative cap
		"flavor=spicy",      // unknown key
		"reconnect=2s",      // unknown key
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	in := "seed=42,rate=1.25,pfail=0.1,kinds=reconfig+worker,after=500ms,until=1m0s,max=7"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != in {
		t.Fatalf("String() = %q, want %q", got, in)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != spec.String() {
		t.Fatalf("round trip diverged: %q vs %q", again.String(), spec.String())
	}
}

// fakePool implements WorkerPool over a plain name list.
type fakePool struct {
	label  string
	alive  []string
	killed []string
}

func (f *fakePool) Label() string         { return f.label }
func (f *fakePool) WorkerNames() []string { return append([]string(nil), f.alive...) }
func (f *fakePool) KillWorker(name string) bool {
	for i, n := range f.alive {
		if n == name {
			f.alive = append(f.alive[:i], f.alive[i+1:]...)
			f.killed = append(f.killed, name)
			return true
		}
	}
	return false
}

// chaosTrace runs a seeded injector against fresh fake targets and
// returns the fault log.
func chaosTrace(t *testing.T, seed int64) []Fault {
	t.Helper()
	env := devent.NewEnv()
	inj := New(env, Spec{Seed: seed, Rate: 2, Until: 20 * time.Second}, nil)
	inj.AttachPool(&fakePool{label: "cpu", alive: []string{"w0", "w1", "w2", "w3"}})
	var log []Fault
	inj.OnFault(func(f Fault) { log = append(log, f) })
	inj.Start()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if inj.Injected() != len(log) {
		t.Fatalf("Injected() = %d, log has %d", inj.Injected(), len(log))
	}
	return log
}

// The same seed replays the identical fault schedule; a different
// seed diverges.
func TestInjectorDeterministic(t *testing.T) {
	a, b := chaosTrace(t, 7), chaosTrace(t, 7)
	if len(a) == 0 {
		t.Fatal("seed 7 injected nothing in 20s at rate 2")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := chaosTrace(t, 8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Scheduled faults fire at their exact virtual time against the named
// target; MaxFaults caps the total.
func TestScheduledFaultsAndCap(t *testing.T) {
	env := devent.NewEnv()
	pool := &fakePool{label: "cpu", alive: []string{"w0", "w1", "w2"}}
	inj := New(env, Spec{Seed: 1, MaxFaults: 2}, nil)
	inj.AttachPool(pool)
	var log []Fault
	inj.OnFault(func(f Fault) { log = append(log, f) })
	inj.At(3*time.Second, KindWorker, "w1")
	inj.At(5*time.Second, KindWorker, "") // first candidate: w0
	inj.At(7*time.Second, KindWorker, "") // capped by MaxFaults=2
	inj.Start()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("log = %+v", log)
	}
	if log[0] != (Fault{3 * time.Second, KindWorker, "w1"}) {
		t.Fatalf("first fault = %+v", log[0])
	}
	if log[1] != (Fault{5 * time.Second, KindWorker, "w0"}) {
		t.Fatalf("second fault = %+v", log[1])
	}
	if len(pool.alive) != 1 || pool.alive[0] != "w2" {
		t.Fatalf("alive = %v", pool.alive)
	}
}

// A reconfig fault kills every worker of the pool at once.
func TestReconfigKillsWholePool(t *testing.T) {
	env := devent.NewEnv()
	pool := &fakePool{label: "gpu", alive: []string{"w0", "w1"}}
	inj := New(env, Spec{Seed: 1}, nil)
	inj.AttachPool(pool)
	inj.At(time.Second, KindReconfig, "gpu")
	inj.Start()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pool.alive) != 0 || len(pool.killed) != 2 {
		t.Fatalf("alive=%v killed=%v", pool.alive, pool.killed)
	}
}

// SubmitFault fails dispatches at the configured probability,
// deterministically per seed, and respects the After window.
func TestSubmitFaultDeterministic(t *testing.T) {
	draws := func(seed int64) []bool {
		env := devent.NewEnv()
		inj := New(env, Spec{Seed: seed, SubmitFailProb: 0.3}, nil)
		var out []bool
		for n := 0; n < 64; n++ {
			out = append(out, errors.Is(inj.SubmitFault(), ErrInjected))
		}
		return out
	}
	a, b, c := draws(5), draws(5), draws(6)
	hits := 0
	diff := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
		if a[i] != c[i] {
			diff = true
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("hits = %d/%d at p=0.3", hits, len(a))
	}
	if !diff {
		t.Fatal("different seeds produced identical draws")
	}

	env := devent.NewEnv()
	inj := New(env, Spec{Seed: 5, SubmitFailProb: 1, After: time.Hour}, nil)
	if err := inj.SubmitFault(); err != nil {
		t.Fatalf("fault before After window: %v", err)
	}
}

// Stop cancels pending arrivals so the env drains.
func TestStopCancelsArrivals(t *testing.T) {
	env := devent.NewEnv()
	pool := &fakePool{label: "cpu", alive: []string{"w0"}}
	inj := New(env, Spec{Seed: 1, Rate: 100}, nil) // no Until: would run forever
	inj.AttachPool(pool)
	inj.Start()
	env.Schedule(50*time.Millisecond, inj.Stop)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() > time.Second {
		t.Fatalf("env ran to %v after Stop", env.Now())
	}
}
