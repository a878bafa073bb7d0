package simgpu

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/devent"
)

// loadedDevice returns a device under policy whose n contexts (two per
// vGPU group) each have a running stream head and one queued kernel.
// SM demands tie in threes and every kernel moves bytes, so both
// max–min passes sort and split; n > 12 takes pdqsort past its
// insertion-sort cutoff.
func loadedDevice(t *testing.T, policy Policy, n int) *Device {
	t.Helper()
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	if err := dev.SetPolicy(policy); err != nil {
		t.Fatal(err)
	}
	env.Spawn("setup", func(p *devent.Proc) {
		for i := 0; i < n; i++ {
			ctx, err := dev.NewContext(p, ContextOpts{SkipInit: true, Group: fmt.Sprintf("vm%d", i/2)})
			if err != nil {
				t.Error(err)
				return
			}
			k := Kernel{FLOPs: 1000, Bytes: 500, MaxSMs: 20 + 10*(i%3)}
			ctx.Launch(k)
			ctx.Launch(k)
		}
	})
	// Stop the run at 1 s, while every kernel still runs.
	horizon := errors.New("horizon")
	env.Schedule(time.Second, func() { env.Fail(horizon) })
	if err := env.Run(); !errors.Is(err, horizon) {
		t.Fatal(err)
	}
	return dev
}

// TestReevaluateAllocatesNothing holds the engine to zero allocations
// per share change once its scratch buffers, the domain's completion
// timer and the scheduler's item pool are warm. Each pass also re-arms the vGPU
// quantum timer.
func TestReevaluateAllocatesNothing(t *testing.T) {
	for _, policy := range []Policy{PolicySpatial, PolicyTimeShare, PolicyVGPU} {
		d := loadedDevice(t, policy, 13).root
		step := func() {
			d.rotT.Cancel()
			d.reevaluate()
		}
		for i := 0; i < 256; i++ {
			step()
		}
		if policy == PolicyVGPU && !d.rotT.Active() {
			t.Fatal("vgpu: quantum timer not armed")
		}
		if got := testing.AllocsPerRun(1000, step); got != 0 {
			t.Errorf("%v: reevaluate allocates %v objects per call, want 0", policy, got)
		}
	}
}

// TestEngineReleasesFinishedWork checks that neither a context's
// stream nor the domain's context list pins what has left it: a
// completed kernel (with its record and done event) and a destroyed
// context.
func TestEngineReleasesFinishedWork(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("tenant", func(p *devent.Proc) {
		var cs []*Context
		for i := 0; i < 3; i++ {
			c, err := dev.NewContext(p, ContextOpts{SkipInit: true})
			if err != nil {
				t.Error(err)
				return
			}
			cs = append(cs, c)
		}
		ctxs := dev.root.ctxs
		first := cs[0].Launch(Kernel{FLOPs: 100})
		cs[0].Launch(Kernel{FLOPs: 100})
		queue := cs[0].queue
		done := queue[0]
		if _, err := p.Wait(first); err != nil {
			t.Error(err)
			return
		}
		if i := slices.Index(queue[:cap(queue)], done); i >= 0 {
			t.Errorf("slot %d of the stream's backing array still holds the completed kernel", i)
		}
		cs[1].Destroy()
		if len(dev.root.ctxs) != 2 || ctxs[2] != nil {
			t.Errorf("after destroying a context the list's tail holds %v", ctxs[2])
		}
	})
	run(t, env)
}

// TestSameInstantCompletionsKeepOrder pins the completion order and
// records of kernels that finish at the same instant on one domain:
// three streams tie at 2 s, and the two queued kernels that start then
// tie again at 2.6 s. The domain arms one completion timer for the
// running kernel due first, a tie going to the first stream, and each
// completion re-arms it; the expected rows are what the engine with a
// timer per kernel produced, SM shares included.
func TestSameInstantCompletionsKeepOrder(t *testing.T) {
	type row struct {
		kernel, ctx string
		start, end  time.Duration
		sms         float64
	}
	want := []row{
		{"a1", "c0", 0, 2 * time.Second, 25},
		{"b1", "c1", 0, 2 * time.Second, 25},
		{"c1", "c2", 0, 2 * time.Second, 100.0 / 3},
		{"a2", "c0", 2 * time.Second, 2600 * time.Millisecond, 50},
		{"b2", "c1", 2 * time.Second, 2600 * time.Millisecond, 100},
	}
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	if err := dev.SetPolicy(PolicySpatial); err != nil {
		t.Fatal(err)
	}
	var got []row
	env.Spawn("setup", func(p *devent.Proc) {
		streams := [][]Kernel{
			{{Name: "a1", FLOPs: 50, MaxSMs: 25}, {Name: "a2", FLOPs: 30}},
			{{Name: "b1", FLOPs: 50, MaxSMs: 25}, {Name: "b2", FLOPs: 30}},
			{{Name: "c1", FLOPs: 100, MaxSMs: 50}},
		}
		for i, ks := range streams {
			ctx, err := dev.NewContext(p, ContextOpts{SkipInit: true, Name: fmt.Sprintf("c%d", i)})
			if err != nil {
				t.Error(err)
				return
			}
			for _, k := range ks {
				ctx.Launch(k).OnFire(func(ev *devent.Event) {
					r := ev.Value().(*KernelRecord)
					got = append(got, row{r.Kernel.Name, r.Context, r.Start, r.End, r.SMs})
				})
			}
		}
	})
	run(t, env)
	if !slices.Equal(got, want) {
		t.Errorf("completions\n got %v\nwant %v", got, want)
	}
}
