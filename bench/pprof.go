package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a runtime/pprof CPU profile the layer fold
// needs. The format is gzip-compressed protobuf (profile.proto); only
// samples, locations with their (inlined) lines, functions and the
// string table are decoded.
type profile struct {
	cpuIndex int // index of the cpu/nanoseconds value in each sample
	samples  []sample
	// frames maps a location ID to its function IDs, innermost inlined
	// frame first, as profile.proto orders a location's lines.
	frames    map[uint64][]uint64
	funcNames map[uint64]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Fields of profile.proto used here.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2

	valueTypeType = 1
	valueTypeUnit = 2
)

// parseProfile decodes a gzip-compressed CPU profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &profile{cpuIndex: -1, frames: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	var valueTypes [][2]uint64 // (type, unit) string indexes
	funcNameIdx := map[uint64]uint64{}
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case profSampleType:
			var vt [2]uint64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				if f == valueTypeType {
					vt[0] = v
				} else if f == valueTypeUnit {
					vt[1] = v
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case profSample:
			var s sample
			err := walk(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case sampleLocation:
					return appendPacked(&s.locs, v, pb)
				case sampleValue:
					var vs []uint64
					if err := appendPacked(&vs, v, pb); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case locID:
					id = v
				case locLine:
					return walk(lb, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.frames[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case funcID:
					id = v
				case funcName:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for id, ni := range funcNameIdx {
		p.funcNames[id] = str(ni)
	}
	for i, vt := range valueTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("pprof: no cpu/nanoseconds sample type")
	}
	return p, nil
}

// walk calls fn for every field of one protobuf message: v carries a
// varint or fixed-width value, b the bytes of a length-delimited one.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("pprof: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder may
// write packed (one length-delimited run) or one value per field.
func appendPacked(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layers are the repository's modules as the benchmark reports them.
// Every package under internal/ must appear in packageLayer; the tests
// walk the tree so a new package fails instead of silently landing in
// a default layer.
const (
	layerGCBg  = "runtime.gc_bg"
	layerOther = "runtime.other"
)

var layerNames = []string{
	"devent", "faas", "simgpu", "obs", "tsdb", "analyze",
	"fleet", "autoscale", "core", layerGCBg, layerOther,
}

var packageLayer = map[string]string{
	"devent": "devent",

	"faas":          "faas",
	"faas/htex":     "faas",
	"faas/provider": "faas",
	"endpoint":      "faas", // the federated FaaS front end
	"colmena":       "faas", // steering framework over the FaaS layer
	"fault":         "faas", // fault injection into executors

	"simgpu":       "simgpu",
	"gpuctl":       "simgpu",
	"llm":          "simgpu",
	"models":       "simgpu",
	"vision":       "simgpu",
	"moldesign":    "simgpu",
	"weightcache":  "simgpu",
	"deviceplugin": "simgpu",
	"devstate":     "simgpu",

	"obs":      "obs",
	"obs/live": "obs",
	"monitor":  "obs",
	"trace":    "obs",

	"obs/tsdb":    "tsdb",
	"obs/analyze": "analyze",
	"fleet":       "fleet",

	"autoscale": "autoscale",
	"repart":    "autoscale", // the other online controller

	"core":      "core",
	"harness":   "core",
	"metrics":   "core",
	"report":    "core",
	"rightsize": "core",
}

// frameLayer returns the layer of a repository frame, or false for a
// frame outside the repository. The benchmark's own package main counts
// as core.
func frameLayer(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "core", true
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return "", false
	}
	// Package paths hold no dots, so the first one ends the path.
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	if l, ok := packageLayer[rest]; ok {
		return l, true
	}
	return "core", true
}

// foldLayers charges every sample's CPU time to the innermost
// repository frame on its stack, inlined frames included, so allocation
// and channel work lands on the layer that caused it. Stacks with no
// repository frame split into background GC marking and everything
// else. It returns CPU nanoseconds per layer.
func foldLayers(p *profile) map[string]int64 {
	out := make(map[string]int64, len(layerNames))
	for _, s := range p.samples {
		if p.cpuIndex >= len(s.values) {
			continue
		}
		out[p.sampleLayer(s)] += s.values[p.cpuIndex]
	}
	return out
}

func (p *profile) sampleLayer(s sample) string {
	gc := false
	for _, loc := range s.locs {
		for _, fid := range p.frames[loc] {
			name := p.funcNames[fid]
			if l, ok := frameLayer(name); ok {
				return l
			}
			if name == "runtime.gcBgMarkWorker" {
				gc = true
			}
		}
	}
	if gc {
		return layerGCBg
	}
	return layerOther
}
