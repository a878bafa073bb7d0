package analyze

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
)

// sweepEvery is how many arrived spans separate evidence-eviction
// sweeps. Sweeps are O(retained evidence), so amortized cost per span
// is constant.
const sweepEvery = 4096

// Streamer is the incremental counterpart of Analyze for one
// collector: it consumes the span stream through OnSpanStart/OnSpanEnd
// hooks and attributes each task as soon as its evidence is complete,
// evicting evidence that can no longer overlap any open task window.
// Memory is bounded by concurrently open tasks plus the eviction
// window instead of by run length, while the resulting Report is
// byte-identical to the snapshot path:
//
//   - interval order cannot change the sweep (each priority names one
//     phase), so evidence is attributed in arrival order, with only a
//     task's own children re-sorted by span ID;
//   - tasks ending inside an open executor restart window are deferred
//     until the restart span is recorded, so retroactive restart
//     evidence is never missed;
//   - attributed tasks are sorted by task-span ID in Finish, restoring
//     the snapshot's emission-order output regardless of completion
//     order.
//
// Build one Streamer per collector before the run, then merge them in
// collector order with BuildReport. Tasks still open when Finish runs
// are not attributed (the snapshot path clamps them instead); real
// runs complete every task before export. SLO alert spans are cached
// (they are not evicted — alert streams are tiny) for
// WriteAlertsStreamed.
type Streamer struct {
	c  *obs.Collector
	a  *analyzer
	id int // collector position, for deterministic merge order

	tasks    []TaskAttribution
	taskIDs  []obs.SpanID // parallel to tasks: sort key for Finish
	deferred []*obs.Span  // ended tasks waiting for an open restart

	openTasks    map[obs.SpanID]time.Duration // open task span -> start
	openSpans    map[obs.SpanID]struct{}      // all open spans (children-index guard)
	openRestarts map[obs.SpanID]obs.Span      // open restart spans, as started

	alerts []obs.Span

	added    int
	lastEnd  time.Duration
	finished bool
}

// NewStreamer attaches a streamer to the collector's span hooks. A nil
// collector yields a nil (no-op) streamer. Attach before the run
// starts; evidence already flushed by a sink cannot be recovered.
func NewStreamer(c *obs.Collector) *Streamer {
	if c == nil {
		return nil
	}
	st := &Streamer{
		c:            c,
		a:            newAnalyzer(),
		openTasks:    make(map[obs.SpanID]time.Duration),
		openSpans:    make(map[obs.SpanID]struct{}),
		openRestarts: make(map[obs.SpanID]obs.Span),
	}
	c.OnSpanStart(st.onStart)
	c.OnSpanEnd(st.onEnd)
	return st
}

func (st *Streamer) onStart(s obs.Span) {
	if st.finished {
		return
	}
	st.openSpans[s.ID] = struct{}{}
	switch {
	case s.Cat == "dfk" && s.Name == "task":
		st.openTasks[s.ID] = s.Start
	case s.Cat == "htex" && s.Name == "restart":
		st.openRestarts[s.ID] = s
	}
}

func (st *Streamer) onEnd(s obs.Span) {
	if st.finished {
		return
	}
	delete(st.openSpans, s.ID)
	if s.End > st.lastEnd {
		st.lastEnd = s.End
	}
	if s.Cat == "slo" && s.Name == "burn" {
		st.alerts = append(st.alerts, s)
		return
	}
	// Only spans that can be attribution evidence are copied to the
	// heap; everything else (fault injections, repart decisions, daemon
	// lifecycles) passes through untouched — mirroring what the
	// snapshot analyzer ignores.
	if !evidenceSpan(&s) {
		return
	}
	cp := new(obs.Span)
	*cp = s
	isTask := st.a.addEvidence(cp)
	switch {
	case isTask:
		delete(st.openTasks, s.ID)
		if st.restartOpenFor(cp.Attr("executor")) {
			st.deferred = append(st.deferred, cp)
		} else {
			st.attribute(cp)
		}
	case s.Cat == "htex" && s.Name == "restart":
		delete(st.openRestarts, s.ID)
		st.drainDeferred()
	}
	st.added++
	if st.added >= sweepEvery {
		st.sweep()
	}
}

// evidenceSpan reports whether the snapshot analyzer would index this
// span: a task, restart, init, or run span, or any child span (device
// activity under runs, queue waits under tasks).
func evidenceSpan(s *obs.Span) bool {
	if s.Parent != 0 {
		return true
	}
	if s.Cat == "dfk" && s.Name == "task" {
		return true
	}
	return s.Cat == "htex" && (s.Name == "restart" || s.Name == "init" || s.Name == "run")
}

// restartOpenFor reports whether any open restart window matches the
// executor filter attributeTask applies to restart evidence.
func (st *Streamer) restartOpenFor(executor string) bool {
	for _, r := range st.openRestarts {
		if ex := r.Attr("executor"); ex == "" || executor == "" || ex == executor {
			return true
		}
	}
	return false
}

// drainDeferred attributes deferred tasks whose matching restart
// windows have all closed (their restart spans are now evidence).
func (st *Streamer) drainDeferred() {
	kept := st.deferred[:0]
	for _, t := range st.deferred {
		if st.restartOpenFor(t.Attr("executor")) {
			kept = append(kept, t)
		} else {
			st.attribute(t)
		}
	}
	st.deferred = kept
}

// attribute decomposes one ended task. Streaming arrival is end-time
// order, but interval order cannot change the sweep, so evidence lists
// stay as they arrived; only the task's own children are restored to
// span-ID order, because GPUPct takes the first run child.
func (st *Streamer) attribute(t *obs.Span) {
	slices.SortFunc(st.a.children[t.ID], func(x, y *obs.Span) int { return cmp.Compare(x.ID, y.ID) })
	ta := st.a.attributeTask(t)
	st.tasks = append(st.tasks, ta)
	st.taskIDs = append(st.taskIDs, t.ID)
	delete(st.a.children, t.ID)
}

// threshold is the eviction horizon: evidence ending before it cannot
// overlap any open or deferred task window (queue waits and blocking
// runs relevant to a task all end at or after the task starts), nor
// any future task (whose window starts later still).
func (st *Streamer) threshold() time.Duration {
	thr := st.lastEnd
	for _, start := range st.openTasks {
		if start < thr {
			thr = start
		}
	}
	for _, t := range st.deferred {
		if t.Start < thr {
			thr = t.Start
		}
	}
	return thr
}

// sweep evicts evidence older than the threshold: restart/init/run
// spans whose windows ended before any live task started, the interval
// memos of evicted runs, and children lists whose parent is neither a
// live (open or deferred) span nor a retained run.
func (st *Streamer) sweep() {
	st.added = 0
	thr := st.threshold()
	st.a.restarts = filterSpans(st.a.restarts, thr)
	st.a.inits = filterSpans(st.a.inits, thr)
	retained := make(map[obs.SpanID]struct{})
	for track, runs := range st.a.runsByTrack {
		kept := filterSpans(runs, thr)
		if len(kept) == 0 {
			delete(st.a.runsByTrack, track)
		} else {
			st.a.runsByTrack[track] = kept
		}
		for _, r := range kept {
			retained[r.ID] = struct{}{}
		}
	}
	for id := range st.a.runIvs {
		if _, ok := retained[id]; !ok {
			delete(st.a.runIvs, id)
		}
	}
	deferredSet := make(map[obs.SpanID]struct{}, len(st.deferred))
	for _, t := range st.deferred {
		deferredSet[t.ID] = struct{}{}
	}
	for pid := range st.a.children {
		if _, ok := st.openSpans[pid]; ok {
			continue
		}
		if _, ok := deferredSet[pid]; ok {
			continue
		}
		if _, ok := retained[pid]; ok {
			continue
		}
		delete(st.a.children, pid)
	}
}

func filterSpans(spans []*obs.Span, thr time.Duration) []*obs.Span {
	kept := spans[:0]
	for _, s := range spans {
		if s.End >= thr {
			kept = append(kept, s)
		}
	}
	return kept
}

// Finish completes the stream: still-open restart windows are clamped
// to the current virtual time and added as evidence (exactly what a
// Spans() snapshot would contain), remaining deferred tasks are
// attributed, every task gets the collector's (possibly just-assigned)
// scope, and the output is sorted back into span-ID order. Idempotent;
// BuildReport calls it automatically.
func (st *Streamer) Finish() {
	if st == nil || st.finished {
		return
	}
	st.finished = true
	now := st.c.Now()
	ids := make([]obs.SpanID, 0, len(st.openRestarts))
	for id := range st.openRestarts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := st.openRestarts[id]
		r.End = now
		if r.End < r.Start {
			r.End = r.Start
		}
		cp := new(obs.Span)
		*cp = r
		st.a.addEvidence(cp)
	}
	for _, t := range st.deferred {
		st.attribute(t)
	}
	st.deferred = nil
	scope := st.c.Scope()
	for i := range st.tasks {
		st.tasks[i].Scope = scope
	}
	sort.Sort(byTaskID{st})
}

// byTaskID sorts the attributed tasks (and their parallel ID keys)
// back into span-ID order.
type byTaskID struct{ st *Streamer }

func (b byTaskID) Len() int { return len(b.st.tasks) }
func (b byTaskID) Less(i, j int) bool {
	return b.st.taskIDs[i] < b.st.taskIDs[j]
}
func (b byTaskID) Swap(i, j int) {
	b.st.tasks[i], b.st.tasks[j] = b.st.tasks[j], b.st.tasks[i]
	b.st.taskIDs[i], b.st.taskIDs[j] = b.st.taskIDs[j], b.st.taskIDs[i]
}

// BuildReport finishes the streamers and merges their attributions in
// argument order — the same collector order Analyze takes — yielding a
// Report byte-identical to the snapshot path for the same run.
func BuildReport(streamers ...*Streamer) *Report {
	rep := &Report{}
	for _, st := range streamers {
		if st == nil {
			continue
		}
		st.Finish()
		rep.Tasks = append(rep.Tasks, st.tasks...)
	}
	rep.buildGroups()
	return rep
}

// WriteAlertsStreamed renders the SLO alert stream from streamers (the
// alert spans a streaming collector has already flushed to its sink),
// in the same format and order as WriteAlerts over snapshots.
func WriteAlertsStreamed(w io.Writer, streamers ...*Streamer) error {
	bw := bufio.NewWriter(w)
	for _, st := range streamers {
		if st == nil {
			continue
		}
		scope := st.c.Scope()
		for _, s := range st.alerts {
			fmt.Fprintf(bw, "%s app=%s start=%s end=%s peak_burn=%s events=%s\n",
				scope, s.Attr("app"), s.Start, s.End, s.Attr("peak_burn"), s.Attr("events"))
		}
	}
	return bw.Flush()
}
