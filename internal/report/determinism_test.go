package report

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/harness"
)

// TestAllParallelMatchesSequential is the determinism contract of the
// parallel harness: report.All rendered with any worker count must be
// byte-identical to the sequential rendering, and repeated parallel
// runs must be byte-identical to each other. Every Env is logically
// single-threaded; parallelism is only across Envs, so nothing about
// scheduling order can leak into the output.
func TestAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full report rendering in -short mode")
	}
	const completions = 8
	render := func(workers int) []byte {
		prev := harness.SetParallelism(workers)
		defer harness.SetParallelism(prev)
		var b bytes.Buffer
		if _, err := All(&b, completions, Observe{}); err != nil {
			t.Fatalf("All with %d workers: %v", workers, err)
		}
		return b.Bytes()
	}
	seq := render(1)
	if len(seq) == 0 {
		t.Fatal("sequential report is empty")
	}
	par := render(4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel output differs from sequential (%d vs %d bytes):\n%s",
			len(par), len(seq), firstDiff(seq, par))
	}
	par2 := render(4)
	if !bytes.Equal(par, par2) {
		t.Fatalf("repeated parallel runs differ:\n%s", firstDiff(par, par2))
	}
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+80, i+80
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("first divergence at byte %d:\n<<<%s\n>>>%s", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return "outputs are prefixes of each other"
}
