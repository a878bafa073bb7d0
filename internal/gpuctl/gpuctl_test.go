package gpuctl

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/devent"
	"repro/internal/simgpu"
)

func TestParseRef(t *testing.T) {
	cases := []struct {
		in   string
		kind RefKind
		ok   bool
	}{
		{"0", RefIndex, true},
		{" 3 ", RefIndex, true},
		{"GPU-abc", RefGPUUUID, true},
		{"MIG-gpu0-1-3g.40gb", RefMIGUUID, true},
		{"", 0, false},
		{"-1", 0, false},
		{"banana", 0, false},
	}
	for _, c := range cases {
		r, err := ParseRef(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseRef(%q) err = %v", c.in, err)
		}
		if c.ok && r.Kind != c.kind {
			t.Fatalf("ParseRef(%q) kind = %v", c.in, r.Kind)
		}
	}
}

func TestParseVisibleDevicesTruncatesAtInvalid(t *testing.T) {
	refs := ParseVisibleDevices("0,MIG-x,junk,2")
	if len(refs) != 2 {
		t.Fatalf("refs = %v", refs)
	}
	if refs[0].Index != 0 || refs[1].UUID != "MIG-x" {
		t.Fatalf("refs = %v", refs)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	s := "1,MIG-gpu0-2-1g.10gb,GPU-gpu1"
	refs := ParseVisibleDevices(s)
	if got := FormatVisibleDevices(refs); got != s {
		t.Fatalf("round trip: %q", got)
	}
}

func TestBindingEnviron(t *testing.T) {
	env := Binding{Accelerator: "0", GPUPercent: 25}.Environ()
	if env[EnvVisibleDevices] != "0" || env[EnvMPSThreadPct] != "25" {
		t.Fatalf("env = %v", env)
	}
	env = Binding{Accelerator: "MIG-a"}.Environ()
	if _, ok := env[EnvMPSThreadPct]; ok {
		t.Fatal("percentage exported for unrestricted binding")
	}
	env = Binding{Accelerator: "0", GPUPercent: 100}.Environ()
	if _, ok := env[EnvMPSThreadPct]; ok {
		t.Fatal("100% should not export a cap")
	}
}

func TestPercentFromEnv(t *testing.T) {
	if got := PercentFromEnv(map[string]string{EnvMPSThreadPct: "40"}); got != 40 {
		t.Fatalf("got %d", got)
	}
	// Paper's alias works too.
	if got := PercentFromEnv(map[string]string{EnvMPSGPUPct: "30"}); got != 30 {
		t.Fatalf("alias: got %d", got)
	}
	// THREAD wins over GPU alias.
	if got := PercentFromEnv(map[string]string{EnvMPSThreadPct: "40", EnvMPSGPUPct: "30"}); got != 40 {
		t.Fatalf("precedence: got %d", got)
	}
	if got := PercentFromEnv(map[string]string{EnvMPSThreadPct: "250"}); got != 100 {
		t.Fatalf("clamp high: got %d", got)
	}
	if got := PercentFromEnv(map[string]string{EnvMPSThreadPct: "0"}); got != 1 {
		t.Fatalf("clamp low: got %d", got)
	}
	if got := PercentFromEnv(map[string]string{EnvMPSThreadPct: "nope"}); got != 0 {
		t.Fatalf("invalid: got %d", got)
	}
	if got := PercentFromEnv(nil); got != 0 {
		t.Fatalf("empty: got %d", got)
	}
}

func TestQuickParseFormatRoundTrip(t *testing.T) {
	f := func(idx []uint8) bool {
		refs := make([]Ref, len(idx))
		for i, v := range idx {
			refs[i] = Ref{Kind: RefIndex, Index: int(v)}
		}
		back := ParseVisibleDevices(FormatVisibleDevices(refs))
		if len(refs) == 0 {
			return len(back) == 0
		}
		if len(back) != len(refs) {
			return false
		}
		for i := range refs {
			if back[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func newTestNode(t *testing.T, env *devent.Env, nDev int) *Node {
	t.Helper()
	devs := make([]*simgpu.Device, nDev)
	for i := range devs {
		d, err := simgpu.NewDevice(env, "gpu"+string(rune('0'+i)), simgpu.A100SXM480GB())
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	return NewNode(env, devs...)
}

func TestMPSDaemonLifecycle(t *testing.T) {
	env := devent.NewEnv()
	n := newTestNode(t, env, 1)
	env.Spawn("admin", func(p *devent.Proc) {
		d, err := n.StartMPS(p, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if n.Device(0).Policy() != simgpu.PolicySpatial {
			t.Error("policy not spatial after MPS start")
		}
		// Idempotent.
		d2, err := n.StartMPS(p, 0)
		if err != nil || d2 != d {
			t.Errorf("second start: %v %v", d2, err)
		}
		if err := d.SetDefaultActiveThreadPercentage(50); err != nil {
			t.Error(err)
		}
		if got := d.ClientPercent(nil); got != 50 {
			t.Errorf("default pct = %d", got)
		}
		if got := d.ClientPercent(map[string]string{EnvMPSThreadPct: "20"}); got != 20 {
			t.Errorf("env pct = %d", got)
		}
		if err := d.Quit(); err != nil {
			t.Error(err)
		}
		if n.Device(0).Policy() != simgpu.PolicyTimeShare {
			t.Error("policy not restored")
		}
		if err := d.Quit(); !errors.Is(err, ErrMPSNotRunning) {
			t.Errorf("double quit: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMPSRefusesMIGMode(t *testing.T) {
	env := devent.NewEnv()
	n := newTestNode(t, env, 1)
	env.Spawn("admin", func(p *devent.Proc) {
		if err := n.Device(0).EnableMIG(p); err != nil {
			t.Error(err)
			return
		}
		if _, err := n.StartMPS(p, 0); !errors.Is(err, simgpu.ErrMIGMode) {
			t.Errorf("StartMPS in MIG mode: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenContextWholeDeviceWithMPSPercent(t *testing.T) {
	env := devent.NewEnv()
	n := newTestNode(t, env, 2)
	env.Spawn("worker", func(p *devent.Proc) {
		if _, err := n.StartMPS(p, 1); err != nil {
			t.Error(err)
			return
		}
		b := Binding{Accelerator: "1", GPUPercent: 30}
		ctx, err := n.OpenContext(p, "fn", b.Environ())
		if err != nil {
			t.Error(err)
			return
		}
		if ctx.SMPercent() != 30 {
			t.Errorf("SMPercent = %d", ctx.SMPercent())
		}
		// Context init cost was paid.
		if p.Now() < n.Device(1).Spec().ContextInit {
			t.Errorf("no init cost: now = %v", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenContextPercentIgnoredWithoutMPS(t *testing.T) {
	env := devent.NewEnv()
	n := newTestNode(t, env, 1)
	env.Spawn("worker", func(p *devent.Proc) {
		b := Binding{Accelerator: "0", GPUPercent: 30}
		ctx, err := n.OpenContext(p, "fn", b.Environ())
		if err != nil {
			t.Error(err)
			return
		}
		if ctx.SMPercent() != 0 {
			t.Errorf("percentage applied without MPS: %d", ctx.SMPercent())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenContextMIGUUID(t *testing.T) {
	env := devent.NewEnv()
	n := newTestNode(t, env, 2)
	env.Spawn("worker", func(p *devent.Proc) {
		dev := n.Device(1)
		if err := dev.EnableMIG(p); err != nil {
			t.Error(err)
			return
		}
		in, err := dev.CreateInstance("3g.40gb")
		if err != nil {
			t.Error(err)
			return
		}
		ctx, err := n.OpenContext(p, "fn", map[string]string{EnvVisibleDevices: in.UUID()})
		if err != nil {
			t.Error(err)
			return
		}
		// Context allocates from the instance pool, not device pool.
		if _, err := ctx.Alloc("w", 20*simgpu.GB); err != nil {
			t.Error(err)
		}
		if in.Mem().Used() == 0 {
			t.Error("allocation did not land in instance pool")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenContextErrors(t *testing.T) {
	env := devent.NewEnv()
	n := newTestNode(t, env, 1)
	env.Spawn("worker", func(p *devent.Proc) {
		if _, err := n.OpenContext(p, "fn", nil); !errors.Is(err, ErrNoDevice) {
			t.Errorf("empty env: %v", err)
		}
		if _, err := n.OpenContext(p, "fn", map[string]string{EnvVisibleDevices: "7"}); !errors.Is(err, ErrNoDevice) {
			t.Errorf("bad index: %v", err)
		}
		if _, err := n.OpenContext(p, "fn", map[string]string{EnvVisibleDevices: "MIG-phantom"}); !errors.Is(err, ErrNoDevice) {
			t.Errorf("phantom MIG: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResolveGPUUUID(t *testing.T) {
	env := devent.NewEnv()
	n := newTestNode(t, env, 2)
	_, dev, err := n.Resolve(Ref{Kind: RefGPUUUID, UUID: "GPU-gpu1"})
	if err != nil || dev != n.Device(1) {
		t.Fatalf("resolve: %v %v", dev, err)
	}
}

func TestMPSDefaultPercentAppliesAtOpen(t *testing.T) {
	env := devent.NewEnv()
	n := newTestNode(t, env, 1)
	env.Spawn("worker", func(p *devent.Proc) {
		d, _ := n.StartMPS(p, 0)
		d.SetDefaultActiveThreadPercentage(25)
		ctx, err := n.OpenContext(p, "fn", map[string]string{EnvVisibleDevices: "0"})
		if err != nil {
			t.Error(err)
			return
		}
		if ctx.SMPercent() != 25 {
			t.Errorf("SMPercent = %d", ctx.SMPercent())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
