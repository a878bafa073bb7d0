package simgpu

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/devent"
)

// TestPerKernelAllocationBudget holds Context.Run, with no collector
// attached, to no heap object per kernel in steady state. The engine's
// launched record, which holds the kernel's completion event and the
// KernelRecord that Run copies out, is the context's run slot.
// Everything else a launch touches is reused too: the stream's backing
// array, the domain's completion timer and scratch, and the
// scheduler's queue items and waiters. The domain's busy-SM step
// series keeps every share change, so its amortized growth adds a few
// objects per thousand kernels; the budget allows 1 % of the kernels
// for it, so one object per kernel fails the test. Three tenants contend for one domain under
// each policy, and for one MIG instance.
func TestPerKernelAllocationBudget(t *testing.T) {
	const warm, kernels, tenants = 300, 3000, 3
	cases := []struct {
		name   string
		policy Policy
		mig    bool
	}{
		{"spatial", PolicySpatial, false},
		{"timeshare", PolicyTimeShare, false},
		{"vgpu", PolicyVGPU, false},
		{"mig", PolicyTimeShare, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := devent.NewEnv()
			dev := mustDevice(t, env, A100SXM480GB())
			if err := dev.SetPolicy(tc.policy); err != nil {
				t.Fatal(err)
			}
			dev.SetVGPUQuantum(time.Millisecond)
			var before, after runtime.MemStats
			launches := 0
			tenant := func(ctx *Context) func(p *devent.Proc) {
				k := Kernel{Name: "k", FLOPs: 1e9, Bytes: 1e8, MaxSMs: 30, Tag: "t"}
				return func(p *devent.Proc) {
					for launches < warm+kernels {
						if launches == warm {
							runtime.ReadMemStats(&before)
						}
						launches++
						if _, err := ctx.Run(p, k); err != nil {
							t.Error(err)
							return
						}
						if launches == warm+kernels {
							runtime.ReadMemStats(&after)
						}
					}
				}
			}
			env.Spawn("setup", func(p *devent.Proc) {
				newContext := dev.NewContext
				if tc.mig {
					if err := dev.EnableMIG(p); err != nil {
						t.Error(err)
						return
					}
					ins, err := dev.ConfigureMIG(p, []string{"3g.40gb"})
					if err != nil {
						t.Error(err)
						return
					}
					newContext = ins[0].NewContext
				}
				for i := 0; i < tenants; i++ {
					ctx, err := newContext(p, ContextOpts{SkipInit: true, Group: fmt.Sprintf("vm%d", i)})
					if err != nil {
						t.Error(err)
						return
					}
					env.Spawn("tenant", tenant(ctx))
				}
			})
			run(t, env)
			if t.Failed() {
				return
			}
			got := after.Mallocs - before.Mallocs
			t.Logf("%.3f heap allocations per kernel", float64(got)/kernels)
			if budget := uint64(kernels / 100); got > budget {
				t.Fatalf("%d heap allocations for %d kernels, budget %d", got, kernels, budget)
			}
		})
	}
}
