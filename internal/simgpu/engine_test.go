package simgpu

import (
	"errors"
	"fmt"
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
// per share change once its scratch buffers, kernel timers and the
// scheduler's item pool are warm. Each pass also re-arms the vGPU
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
// completed kernel (its record, done event and callback) and a
// destroyed context.
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
		if _, err := p.Wait(first); err != nil {
			t.Error(err)
			return
		}
		if queue[0] != nil {
			t.Error("the stream's backing array still holds the completed kernel")
		}
		cs[1].Destroy()
		if len(dev.root.ctxs) != 2 || ctxs[2] != nil {
			t.Errorf("after destroying a context the list's tail holds %v", ctxs[2])
		}
	})
	run(t, env)
}
