package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/harness"
)

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the emitted
// metrics and workloads in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []metricDef, names, units []string) {
		if len(got) != len(names) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(got), len(names))
		}
		for i, m := range got {
			if m.name != names[i] || m.unit != units[i] {
				t.Errorf("%s %d: code %s %s, BENCHMARK.json %s %s", kind, i, m.name, m.unit, names[i], units[i])
			}
			if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
				t.Errorf("%s: invalid name or unit %q %q", kind, m.name, m.unit)
			}
		}
	}
	var names, units []string
	setup, largest := 0.0, 0.0
	for _, m := range b.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		largest = math.Max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	check("end_to_end", endToEnd, names, units)
	if setup == 0 || setup < largest {
		t.Errorf("setup_s bound %g must be the largest (%g)", setup, largest)
	}
	names, units = nil, nil
	for _, m := range b.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
	check("per_layer", perLayer, names, units)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q %q", i, w.Name, w.Why)
		}
	}
}

// TestEveryInternalPackageHasALayer fails on a package the layer table
// does not name, instead of letting its samples land in a default.
func TestEveryInternalPackageHasALayer(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layerNames {
		known[l] = true
	}
	for pkg, l := range packageLayer {
		if !known[l] {
			t.Errorf("package %s maps to unknown layer %s", pkg, l)
		}
	}
	root := "../internal"
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		if _, ok := packageLayer[filepath.ToSlash(rel)]; !ok {
			t.Errorf("package internal/%s has no layer in packageLayer", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// protoBuf builds protobuf messages for synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *protoBuf) num(field int, x uint64) *protoBuf {
	p.varint(uint64(field)<<3 | 0)
	p.varint(x)
	return p
}

func (p *protoBuf) bytes(field int, b []byte) *protoBuf {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *protoBuf) packed(field int, xs ...uint64) *protoBuf {
	var q protoBuf
	for _, x := range xs {
		q.varint(x)
	}
	return p.bytes(field, q.b)
}

// syntheticProfile encodes one sample per stack (leaf first), each
// costing 10 ms. A stack entry holds one location's function names,
// innermost inlined frame first.
func syntheticProfile(t *testing.T, stacks ...[][]string) []byte {
	t.Helper()
	var p protoBuf
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	p.bytes(profSampleType, (&protoBuf{}).num(valueTypeType, 1).num(valueTypeUnit, 2).b)
	p.bytes(profSampleType, (&protoBuf{}).num(valueTypeType, 3).num(valueTypeUnit, 4).b)
	var nextLoc uint64
	for _, stack := range stacks {
		var locs []uint64
		for _, frames := range stack {
			nextLoc++
			loc := (&protoBuf{}).num(locID, nextLoc)
			for _, fn := range frames {
				id := intern(fn) // function ID = its name's string index
				p.bytes(profFunction, (&protoBuf{}).num(funcID, id).num(funcName, id).b)
				loc.bytes(locLine, (&protoBuf{}).num(lineFunction, id).b)
			}
			p.bytes(profLocation, loc.b)
			locs = append(locs, nextLoc)
		}
		p.bytes(profSample, (&protoBuf{}).packed(sampleLocation, locs...).packed(sampleValue, 1, 10e6).b)
	}
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestFoldChargesInnermostRepoFrame(t *testing.T) {
	data := syntheticProfile(t,
		// obs code inlined into a core caller: the inlined callee wins,
		// and the allocator's time goes with it.
		[][]string{{"runtime.mallocgc"}, {"repro/internal/obs.itoa", "repro/internal/core.runScaleShard"}},
		// The innermost repository frame wins over its callers.
		[][]string{{"runtime.chansend1"}, {"repro/internal/devent.(*Proc).Sleep"}, {"repro/internal/core.RunMillionTask"}},
		[][]string{{"repro/internal/obs/tsdb.(*DB).Scrape"}},
		[][]string{{"main.measure"}},
		// No repository frame: background marking, or anything else.
		[][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}},
		[][]string{{"runtime.futex"}, {"runtime.findRunnable"}, {"runtime.schedule"}},
	)
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	got := foldLayers(p)
	want := map[string]int64{"obs": 10e6, "devent": 10e6, "tsdb": 10e6, "core": 10e6, layerGCBg: 10e6, layerOther: 10e6}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("layer %s = %d ns, want %d (fold %v)", l, got[l], ns, got)
		}
	}
}

// TestRealProfileDecodes folds a profile recorded by runtime/pprof.
func TestRealProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sum := sha256.Sum256(nil)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sum = sha256.Sum256(sum[:])
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples in a 300 ms busy profile")
	}
	var total, folded int64
	for _, s := range p.samples {
		total += s.values[p.cpuIndex]
	}
	for _, ns := range foldLayers(p) {
		folded += ns
	}
	if total == 0 || folded != total {
		t.Errorf("folded %d ns of %d", folded, total)
	}
	if len(p.funcNames) == 0 || len(p.frames) == 0 {
		t.Error("no functions or locations decoded")
	}
}

// inProcess runs one repetition in this process, through the same
// measure and summarize path the child processes use.
func inProcess(t *testing.T, w *workload, seed int64, profiled bool) *rep {
	t.Helper()
	t0 := time.Now()
	cr, err := measure(w, smokeSizes, seed, profiled)
	if err != nil {
		t.Fatal(err)
	}
	r := &rep{childResult: cr, profiled: profiled, setupS: float64(cr.FirstUnixNS-t0.UnixNano()) / 1e9}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		r.rssMB = float64(ru.Maxrss) / 1024
	}
	return r
}

func TestSmoke(t *testing.T) {
	start := time.Now()
	harness.SetParallelism(1)
	b := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			set := &runs{w: w, reps: []*rep{inProcess(t, w, 1, false), inProcess(t, w, 1, true), inProcess(t, w, 1, false)}}
			first := set.reps[0].Outcome.Digest
			for _, r := range set.reps {
				if r.Outcome.Digest != first {
					t.Errorf("digest %s differs from %s", r.Outcome.Digest, first)
				}
			}
			if w.seeded {
				if d := inProcess(t, w, 2, false).Outcome.Digest; d == first {
					t.Errorf("seed 2 gives seed 1's digest %s", d)
				}
			}
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				if err := writeReport(&out, []*runs{set}, trace); err != nil {
					t.Fatal(err)
				}
				checkRecord(t, out.String(), trace, b)
			}
			res := summarize(set, true)
			var share float64
			for _, l := range layerNames {
				share += res.values[cpuFracName(l)]
			}
			// A smoke-sized run can finish between two 10 ms samples.
			if len(set.reps[1].LayerNS) > 0 && math.Abs(share-1) > 0.01 {
				t.Errorf("layer CPU shares sum to %g", share)
			}
		})
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke test took %s, want under 10s", d)
	}
}

// checkRecord asserts the last output line is the JSON record, correct,
// with exactly the BENCHMARK.json metrics and units.
func checkRecord(t *testing.T, out string, trace bool, b benchmarkFile) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rec jsonRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("record correct=%v attempted=%d failed=%d\n%s", rec.Correct, rec.Attempted, rec.Failed, out)
	}
	want := map[string]string{}
	for _, m := range b.EndToEnd {
		if !trace {
			want[m.Name] = m.Unit
		}
	}
	for _, m := range b.PerLayer {
		if trace {
			want[m.Name] = m.Unit
		}
	}
	if len(rec.Metrics) != len(want) {
		t.Errorf("trace=%v: %d metrics, want %d", trace, len(rec.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := rec.Metrics[name]
		if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, name, m, unit)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
		}
	}
}
