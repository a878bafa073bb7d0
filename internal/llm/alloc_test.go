package llm

import (
	"runtime"
	"testing"

	"repro/internal/devent"
	"repro/internal/simgpu"
)

// TestCompletionAllocationBudget holds a 20-token Complete on a loaded
// single-shard engine, with no collector attached, to one spare object.
// Its 21 kernels (one prefill and 20 decode steps) are Runs, which
// reuse the context's run slot, and they are built at load, so a
// decode step formats no name and boxes nothing, and Complete itself
// allocates nothing; the spare covers the amortized growth of the
// domain's busy-SM step series, measured at 0.08 objects per
// completion.
func TestCompletionAllocationBudget(t *testing.T) {
	const warm, completions, tokens, spare = 10, 200, 20, 1
	env := devent.NewEnv()
	dev := a100(t, env, "gpu0")
	var before, after runtime.MemStats
	env.Spawn("svc", func(p *devent.Proc) {
		ctx, err := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		if err != nil {
			t.Error(err)
			return
		}
		e := New(LLaMa27B())
		if err := e.Load(p, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < warm+completions; i++ {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			if _, err := e.Complete(p, 20, tokens); err != nil {
				t.Error(err)
				return
			}
		}
		runtime.ReadMemStats(&after)
	})
	runEnv(t, env)
	if t.Failed() {
		return
	}
	per := float64(after.Mallocs-before.Mallocs) / completions
	t.Logf("%.2f heap allocations per completion", per)
	if per > spare {
		t.Fatalf("%.2f heap allocations per completion, budget %d", per, spare)
	}
}
