package htex

import "testing"

// FuzzConfigValidate checks that Validate never panics and that every
// config it accepts satisfies the invariants the executor relies on:
// a label, a worker source, and aligned percentage lists with in-range
// values.
func FuzzConfigValidate(f *testing.F) {
	f.Add("gpu", 0, 3, 3, 50)
	f.Add("cpu", 4, 0, 0, 0)
	f.Add("gpu", 0, 2, 3, 120)
	f.Add("", 0, 0, 0, 0)
	f.Fuzz(func(t *testing.T, label string, maxWorkers, nAcc, nPct, pct int) {
		if nAcc < 0 || nAcc > 64 || nPct < 0 || nPct > 64 {
			t.Skip()
		}
		cfg := Config{Label: label, MaxWorkers: maxWorkers, Provider: stubProvider{}}
		for i := 0; i < nAcc; i++ {
			cfg.AvailableAccelerators = append(cfg.AvailableAccelerators, "0")
		}
		for i := 0; i < nPct; i++ {
			cfg.GPUPercentages = append(cfg.GPUPercentages, pct)
		}
		if err := cfg.Validate(); err != nil {
			return
		}
		if cfg.Label == "" {
			t.Fatal("accepted empty label")
		}
		if len(cfg.AvailableAccelerators) == 0 && cfg.MaxWorkers <= 0 {
			t.Fatal("accepted config with no workers")
		}
		if n := len(cfg.GPUPercentages); n > 0 && n != len(cfg.AvailableAccelerators) {
			t.Fatalf("accepted misaligned percentages: %d for %d accelerators",
				n, len(cfg.AvailableAccelerators))
		}
		for _, p := range cfg.GPUPercentages {
			if p < 0 || p > 100 {
				t.Fatalf("accepted out-of-range percentage %d", p)
			}
		}
		// Bindings on a valid config must not panic and must align.
		if b := cfg.Bindings(); len(b) != len(cfg.AvailableAccelerators) {
			t.Fatalf("Bindings() = %d entries for %d accelerators",
				len(b), len(cfg.AvailableAccelerators))
		}
	})
}
