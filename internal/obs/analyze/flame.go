package analyze

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// WriteFolded emits the report as pprof-style folded stacks, one line
// per stack with a virtual-nanosecond weight:
//
//	scope;executor;app;phase <ns>
//
// The format is what flamegraph.pl, speedscope, and `pprof -http`
// (via conversion) consume. Frames with an SM budget annotate the app
// frame (app@40). Zero-weight stacks are omitted; lines are sorted
// lexicographically so the artifact is byte-stable.
func WriteFolded(w io.Writer, r *Report) error {
	weights := make(map[string]int64)
	for i := range r.Tasks {
		t := &r.Tasks[i]
		app := t.App
		if t.GPUPct != "" {
			app += "@" + t.GPUPct
		}
		executor := t.Executor
		if executor == "" {
			executor = "-"
		}
		prefix := t.Scope + ";" + executor + ";" + app + ";"
		for p, v := range t.Phases {
			if v > 0 {
				weights[prefix+Phase(p).String()] += int64(v)
			}
		}
	}
	stacks := make([]string, 0, len(weights))
	for s := range weights {
		stacks = append(stacks, s)
	}
	sort.Strings(stacks)
	bw := bufio.NewWriter(w)
	var line []byte
	for _, s := range stacks {
		line = append(line[:0], s...)
		line = append(line, ' ')
		line = append(strconv.AppendInt(line, weights[s], 10), '\n')
		bw.Write(line)
	}
	return bw.Flush()
}
