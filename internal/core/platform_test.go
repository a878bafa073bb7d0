package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/obs/analyze"
	"repro/internal/simgpu"
)

func TestPlatformDefaults(t *testing.T) {
	pl, err := NewPlatform(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Devices) != 2 {
		t.Fatalf("devices = %d", len(pl.Devices))
	}
	if pl.Devices[0].Spec().Name != "A100-SXM4-80GB" {
		t.Fatalf("spec = %s", pl.Devices[0].Spec().Name)
	}
	if pl.Obs == nil || pl.DFK.Collector() != pl.Obs {
		t.Fatal("collector not wired to the DFK")
	}
}

func TestPlatformMonitorRecordsTasks(t *testing.T) {
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		t.Fatal(err)
	}
	pl.Register(faas.App{Name: "hello", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(time.Second)
		return "hi", nil
	}})
	err = pl.Run(func(p *devent.Proc) error {
		_, err := pl.DFK.Submit("hello").Result(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The span stream alone reconstructs the task: one hello task on
	// the cpu executor whose 1 s run is host time (no device work) and
	// all of its latency.
	rep := analyze.Analyze(pl.Obs)
	if len(rep.Tasks) != 1 {
		t.Fatalf("attributed tasks = %d, want 1", len(rep.Tasks))
	}
	tk := rep.Tasks[0]
	if tk.App != "hello" || tk.Executor != "cpu" || tk.Status != "done" {
		t.Fatalf("task = %+v", tk)
	}
	if got := tk.Phases[analyze.PhaseHost]; got != time.Second || tk.Duration() != time.Second {
		t.Fatalf("host = %v, latency = %v, want 1s each (phases %v)", got, tk.Duration(), tk.Phases)
	}
	if len(rep.Groups) != 1 || rep.Groups[0].App != "hello" || rep.Groups[0].Tasks != 1 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
}

func TestConfigureGPUExecutorReplaces(t *testing.T) {
	pl, err := NewPlatform(Options{
		DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()},
		WorkerInit:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pcts []int
	pl.Register(faas.App{Name: "probe", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		ctx, err := inv.GPU()
		if err != nil {
			return nil, err
		}
		pcts = append(pcts, ctx.SMPercent())
		return nil, nil
	}})
	err = pl.Run(func(p *devent.Proc) error {
		if _, err := pl.StartMPS(p, 0); err != nil {
			return err
		}
		if err := pl.ConfigureGPUExecutor(p, []string{"0"}, []int{60}); err != nil {
			return err
		}
		if _, err := pl.DFK.Submit("probe").Result(p); err != nil {
			return err
		}
		// Reconfigure: the old executor drains, the new binding wins.
		if err := pl.ConfigureGPUExecutor(p, []string{"0"}, []int{30}); err != nil {
			return err
		}
		if _, err := pl.DFK.Submit("probe").Result(p); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pcts) != 2 || pcts[0] != 60 || pcts[1] != 30 {
		t.Fatalf("pcts = %v", pcts)
	}
	if pl.GPU() == nil {
		t.Fatal("GPU() accessor nil after configure")
	}
}

func TestPlatformConfigureMIG(t *testing.T) {
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		t.Fatal(err)
	}
	err = pl.Run(func(p *devent.Proc) error {
		uuids, err := pl.ConfigureMIG(p, 0, []string{"3g.40gb", "3g.40gb"})
		if err != nil {
			return err
		}
		if len(uuids) != 2 {
			t.Errorf("uuids = %v", uuids)
		}
		if !pl.Devices[0].MIGEnabled() {
			t.Error("MIG not enabled")
		}
		// Re-layout works through the same call.
		uuids, err = pl.ConfigureMIG(p, 0, []string{"7g.80gb"})
		if err != nil {
			return err
		}
		if len(uuids) != 1 {
			t.Errorf("relayout uuids = %v", uuids)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlatformRunPropagatesMainError(t *testing.T) {
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := simgpu.ErrBusy
	if got := pl.Run(func(p *devent.Proc) error { return sentinel }); got != sentinel {
		t.Fatalf("got = %v", got)
	}
}

// blackholeExecutor accepts every submission and never completes it.
type blackholeExecutor struct{ env *devent.Env }

func (b blackholeExecutor) Label() string { return "hole" }
func (b blackholeExecutor) Start() error  { return nil }
func (b blackholeExecutor) Submit(*faas.Task) *devent.Event {
	return b.env.NewEvent()
}

// A task that never reaches a terminal state fails the run, without
// chaos, and the error is the task ledger's: it names the loss, not
// just the launch step the lost task left awaiting.
func TestPlatformRunFailsOnLostTask(t *testing.T) {
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.DFK.AddExecutor(blackholeExecutor{pl.Env}); err != nil {
		t.Fatal(err)
	}
	pl.Register(faas.App{Name: "lost", Executor: "hole"})
	pl.Register(faas.App{Name: "ok", Executor: "cpu", Fn: func(*faas.Invocation) (any, error) { return nil, nil }})
	err = pl.Run(func(p *devent.Proc) error {
		pl.DFK.Submit("lost")
		_, err := pl.DFK.Submit("ok").Result(p)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "1 of 2 submitted tasks never reached a terminal state") {
		t.Fatalf("err = %v, want the ledger's lost task", err)
	}
}

// partition is the one Table 1 configuration step behind every FaaS
// driver: each mode's plan for 1–4 processes on one A100-80GB.
func TestPartitionPlans(t *testing.T) {
	equal := map[int][]int{1: {100}, 2: {50, 50}, 3: {34, 33, 33}, 4: {25, 25, 25, 25}}
	for _, mode := range Table1Modes {
		for n := 1; n <= 4; n++ {
			pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
			if err != nil {
				t.Fatal(err)
			}
			var accels []string
			var pcts []int
			if err := pl.Run(func(p *devent.Proc) (err error) {
				accels, pcts, err = pl.partition(p, mode, n)
				return err
			}); err != nil {
				t.Fatalf("%s/%d: %v", mode, n, err)
			}
			pl.Env.Close()
			if len(accels) != n {
				t.Fatalf("%s/%d: accels = %v", mode, n, accels)
			}
			for _, a := range accels {
				ok := a == "0"
				if mode == ModeMIG {
					ok = strings.HasPrefix(a, "MIG-")
				}
				if !ok {
					t.Errorf("%s/%d: accels = %v", mode, n, accels)
				}
			}
			var want []int
			if mode == ModeMPS {
				want = equal[n]
			}
			if !slices.Equal(pcts, want) || (want == nil) != (pcts == nil) {
				t.Errorf("%s/%d: pcts = %v, want %v", mode, n, pcts, want)
			}
			if got := pl.Devices[0].Policy() == simgpu.PolicyVGPU; got != (mode == ModeVGPU) {
				t.Errorf("%s/%d: vGPU policy = %v", mode, n, got)
			}
		}
	}
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Env.Close()
	err = pl.Run(func(p *devent.Proc) error {
		_, _, err := pl.partition(p, "bogus", 2)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "core: unknown mode") {
		t.Fatalf("bogus mode: err = %v", err)
	}
}
