// Package analyze is the deterministic post-run analysis engine over
// the obs span stream: critical-path latency attribution (every task's
// end-to-end time decomposed into named, non-overlapping phases that
// sum exactly to the span duration), folded-stack flamegraph export,
// SLO burn-rate monitoring on the virtual clock, and run-to-run trace
// diffing.
//
// Attribution is a counted edge sweep. Each span kind that can explain
// a slice of a task's wall time contributes an interval with a fixed
// phase and priority, and every priority names exactly one phase.
// Intervals become one start and one end edge each, walked in time
// order with a live count per priority plus a 128-bit mask of the live
// priorities, so each elementary segment between edges takes the phase
// of the highest live priority. Because a priority names one phase, it
// never matters which of several equal-priority intervals covers a
// segment, and nothing accumulates between edges at the same time: the
// result depends only on the multiset of edges, not on their order
// among ties. Uncovered segments are classified positionally (before
// the first evidence: submit; between evidence: retry/backoff; after
// the last: other). Executor queue time is critical-path-reattributed:
// while a task waits for a busy worker, the blocking run's own phases
// (kernel queueing, compute, transfers) claim that wait, so
// device-level contention surfaces in end-to-end blame instead of
// hiding behind a generic "queue" bucket. All arithmetic is integer
// virtual nanoseconds, so the per-task phase vector sums to the task
// duration exactly — the invariant the acceptance tests lock.
//
// A queued task re-blames every run ahead of it, so neighbouring tasks
// share most of their edges. Each htex run's evidence is therefore
// built once per collector, its edges sorted once into one flat arena.
// A task sorts only its own few edges (queue, init and restart windows,
// plus any run that straddles a window's end, clipped: at most two per
// window when a track's runs do not overlap) and merges them with the
// memoised lists of the runs that lie wholly inside its windows. Lists
// whose extents follow each other in time share one merge cursor, so
// the merge is a handful of cursors wide and a task of m edges costs
// O(m) plus the sort of its own edges, instead of O(m log m). A run
// whose evidence covers its extent without a gap also memoises its own
// decomposition; where it outranks everything live across that extent,
// as a blocking run does over a bare queue wait, the merge adds that
// decomposition and skips the run's edges.
package analyze

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Phase names one slice of a task's end-to-end latency. The order is
// the canonical presentation order in every artifact.
type Phase int

const (
	// PhaseSubmit is time between task submission and the first
	// evidence of executor-side work (normally zero: the DFK hands the
	// task to the executor in the same virtual instant).
	PhaseSubmit Phase = iota
	// PhaseQueue is time spent in the executor submit queue that no
	// blocking activity explains (the scheduler simply had not placed
	// the task yet). Queue time spent waiting for a busy worker is
	// critical-path-reattributed to the blocking run's phases instead.
	PhaseQueue
	// PhaseColdStart is worker/context initialization the task had to
	// wait for: the executor init window overlapping the task's queue
	// wait, plus lazy GPU-context creation inside the invocation.
	PhaseColdStart
	// PhaseWeightLoad is host-to-device weight shard transfer time.
	PhaseWeightLoad
	// PhaseKernelQueue is device-side dispatch delay: kernels enqueued
	// but not yet running (time-share serialization, SM contention).
	PhaseKernelQueue
	// PhaseCompute is kernel execution on the SMs.
	PhaseCompute
	// PhasePCIe is non-weight host/device transfer time.
	PhasePCIe
	// PhaseHost is on-worker time not explained by the device: host
	// gaps between token launches, sampling, framework overhead.
	PhaseHost
	// PhaseRetryBackoff is time between attempts: backoff sleeps and
	// any other uncovered gap in the middle of the task.
	PhaseRetryBackoff
	// PhaseRestartStall is queue/backoff time that overlaps an
	// executor drain/restart window (e.g. a repartitioning
	// transition).
	PhaseRestartStall
	// PhaseOther is trailing unattributed time; zero in default runs.
	PhaseOther

	// NumPhases is the number of phases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"submit", "queue", "cold_start", "weight_load", "kernel_queue",
	"compute", "pcie", "host", "retry_backoff", "restart_stall", "other",
}

// String returns the canonical snake_case phase name.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "invalid"
	}
	return phaseNames[p]
}

// PhaseByName resolves a canonical phase name; ok is false for an
// unknown name.
func PhaseByName(name string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), true
		}
	}
	return 0, false
}

// Breakdown is a per-phase duration vector in virtual time. The sum
// of all entries equals the task span duration exactly.
type Breakdown [NumPhases]time.Duration

// Total returns the sum over all phases.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, v := range b {
		t += v
	}
	return t
}

// add accumulates another breakdown into b.
func (b *Breakdown) add(o *Breakdown) {
	for i, v := range o {
		b[i] += v
	}
}

// TaskAttribution is one task's decomposed end-to-end latency.
type TaskAttribution struct {
	Scope    string    `json:"scope"`
	Task     int       `json:"task"`
	App      string    `json:"app"`
	Executor string    `json:"executor,omitempty"`
	GPUPct   string    `json:"gpu_pct,omitempty"`
	Status   string    `json:"status"`
	StartNS  int64     `json:"start_ns"`
	EndNS    int64     `json:"end_ns"`
	Phases   Breakdown `json:"phases"`
}

// Duration returns the task's end-to-end virtual latency.
func (t *TaskAttribution) Duration() time.Duration {
	return time.Duration(t.EndNS - t.StartNS)
}

// Group is a blame profile: every task sharing a (scope, executor,
// app, SM-budget) key, with summed phase time and latency percentiles.
type Group struct {
	Scope    string    `json:"scope"`
	Executor string    `json:"executor,omitempty"`
	App      string    `json:"app"`
	GPUPct   string    `json:"gpu_pct,omitempty"`
	Tasks    int       `json:"tasks"`
	MeanNS   int64     `json:"mean_ns"`
	P50NS    int64     `json:"p50_ns"`
	P95NS    int64     `json:"p95_ns"`
	P99NS    int64     `json:"p99_ns"`
	Phases   Breakdown `json:"phases"` // summed over the group's tasks
}

// Report is the full attribution result for one (multi-collector) run.
type Report struct {
	Tasks  []TaskAttribution `json:"tasks"`
	Groups []Group           `json:"groups"`
}

// interval is one piece of phase evidence on the sweep line.
type interval struct {
	start, end time.Duration
	phase      Phase
	prio       int
}

// Interval priorities: when evidence overlaps, the most specific
// explanation wins. Compute beats its own queue delay, device
// activity beats the enclosing run span, context init beats the
// enclosing queue wait, and restart windows only claim time nothing
// else explains. The values are spaced by 10 so blocking-run
// reattribution (see blockedPrio) can slot between plain queue wait
// and the task's own evidence. Every priority, own or blocked, names
// exactly one phase and stays below maxPrio; the sweep relies on both.
const (
	prioRestart   = 10 // executor drain/restart window
	prioQueue     = 20 // htex queue span
	prioInitWait  = 30 // worker init ∩ queue wait
	prioRun       = 40 // htex run span remainder -> host
	prioCtxInit   = 50 // lazy GPU-context creation in the invocation
	prioPCIe      = 60 // non-weight transfer
	prioWeights   = 70 // weight shard transfer
	prioKernQueue = 80 // kernel dispatch delay
	prioCompute   = 90 // kernel execution
)

// blockedPrio maps a blocking run's interval priority into the band
// (prioQueue, prioInitWait): a neighbour's phases outrank the bare
// queue span but never the waiting task's own evidence, and their
// relative order (compute over kernel queue over transfers over host)
// is preserved.
func blockedPrio(orig int) int { return prioQueue + orig/10 }

// Analyze decomposes every dfk task span found in the collectors and
// aggregates blame profiles. Collector order is preserved, so output
// is deterministic for a deterministic run.
func Analyze(collectors ...*obs.Collector) *Report {
	rep := &Report{}
	for _, c := range collectors {
		if c == nil {
			continue
		}
		analyzeCollector(rep, c)
	}
	rep.buildGroups()
	return rep
}

// analyzer holds one collector's span indexes during attribution.
type analyzer struct {
	children map[obs.SpanID][]*obs.Span
	restarts []*obs.Span
	tracks   map[string]*track // htex run and init spans per worker track
	runOf    map[obs.SpanID]int
	runs     []runMemo
	// The memo arenas: run r's non-empty intervals are
	// runIvs[r.off:r.off+r.n], and their edges, sorted by time, are
	// runEdges[2*r.off:2*(r.off+r.n)].
	runIvs   []interval
	runEdges []edge
	ivs      []interval // the current task's own evidence, reused across tasks
	sw       sweep
}

// track is one worker's htex spans: its runs, by start, and its init
// windows.
type track struct {
	runs   []int           // indexes into analyzer.runs
	maxEnd []time.Duration // maxEnd[i] is the latest End of runs[:i+1]
	inits  []*obs.Span
}

// runMemo is one htex run span's memoised evidence: the run itself as
// host time plus its device-side children. [lo, hi] is the extent of
// that evidence, which can reach outside the run span: a kernel's
// dispatch delay may start before the run does. self is the run's own
// decomposition of its extent; solid reports that the evidence covers
// the extent without a gap.
type runMemo struct {
	span   *obs.Span
	off, n int
	lo, hi time.Duration
	self   Breakdown
	solid  bool
}

func analyzeCollector(rep *Report, c *obs.Collector) {
	a, tasks := newAnalyzer(c.Spans())
	scope := c.Scope()
	for _, t := range tasks {
		ta := a.attributeTask(t)
		ta.Scope = scope
		rep.Tasks = append(rep.Tasks, ta)
	}
}

// newAnalyzer indexes one collector's spans, memoises every run's
// evidence, and returns the dfk task spans to attribute.
func newAnalyzer(spans []obs.Span) (*analyzer, []*obs.Span) {
	a := &analyzer{
		children: make(map[obs.SpanID][]*obs.Span),
		tracks:   make(map[string]*track),
		runOf:    make(map[obs.SpanID]int),
	}
	var tasks []*obs.Span
	for i := range spans {
		if a.addEvidence(&spans[i]) {
			tasks = append(tasks, &spans[i])
		}
	}
	a.memoise()
	return a, tasks
}

// addEvidence indexes one span into the analyzer's evidence structures
// and reports whether it is a dfk task span (the attribution unit).
func (a *analyzer) addEvidence(s *obs.Span) bool {
	if s.Parent != 0 {
		a.children[s.Parent] = append(a.children[s.Parent], s)
	}
	switch {
	case s.Cat == "dfk" && s.Name == "task":
		return true
	case s.Cat == "htex" && s.Name == "restart":
		a.restarts = append(a.restarts, s)
	case s.Cat == "htex" && s.Name == "init":
		tr := a.track(s.Track)
		tr.inits = append(tr.inits, s)
	case s.Cat == "htex" && s.Name == "run":
		tr := a.track(s.Track)
		a.runOf[s.ID] = len(a.runs)
		tr.runs = append(tr.runs, len(a.runs))
		a.runs = append(a.runs, runMemo{span: s})
	}
	return false
}

func (a *analyzer) track(name string) *track {
	tr := a.tracks[name]
	if tr == nil {
		tr = &track{}
		a.tracks[name] = tr
	}
	return tr
}

// memoise builds every run's evidence once: its intervals, their
// edges sorted, and its own decomposition, with the phases of its
// priorities, own and blocked, entered in the sweep's table. It then
// orders each track's runs by start for the queue-window search.
func (a *analyzer) memoise() {
	// A run yields its host interval and at most two per child, so
	// the arenas are allocated once.
	size := 0
	for i := range a.runs {
		size += 1 + 2*len(a.children[a.runs[i].span.ID])
	}
	ivs := make([]interval, 0, size)
	for i := range a.runs {
		r := &a.runs[i]
		r.off = len(ivs)
		ivs = appendDeviceIntervals(
			append(ivs, interval{r.span.Start, r.span.End, PhaseHost, prioRun}),
			a.children[r.span.ID])
		n := r.off
		r.lo, r.hi = math.MaxInt64, math.MinInt64
		for _, iv := range ivs[r.off:] {
			if iv.end > iv.start {
				ivs[n] = iv
				n++
				r.lo, r.hi = min(r.lo, iv.start), max(r.hi, iv.end)
			}
		}
		ivs = ivs[:n]
		r.n = n - r.off
	}
	a.runIvs = ivs
	a.runEdges = make([]edge, 2*len(ivs))
	for i := range a.runs {
		r := &a.runs[i]
		edges := a.runEdges[2*r.off : 2*(r.off+r.n)]
		for j, iv := range ivs[r.off : r.off+r.n] {
			edges[2*j] = edge{iv.start, int32(iv.prio), 1}
			edges[2*j+1] = edge{iv.end, int32(iv.prio), -1}
			a.sw.phase[iv.prio] = iv.phase
			a.sw.phase[blockedPrio(iv.prio)] = iv.phase
		}
		slices.SortFunc(edges, edgeAt)
		if r.n > 0 {
			a.sw.lists = append(a.sw.lists, list{edges: edges, lo: r.lo, hi: r.hi})
			r.self = a.sw.decompose(r.lo, r.hi, nil)
			r.solid = r.self[PhaseRetryBackoff] == 0
		}
	}
	for _, tr := range a.tracks {
		slices.SortFunc(tr.runs, func(x, y int) int {
			return cmp.Compare(a.runs[x].span.Start, a.runs[y].span.Start)
		})
		// Runs on one track may overlap, so End is not sorted with
		// Start; its running maximum is, and bounds the search.
		tr.maxEnd = make([]time.Duration, len(tr.runs))
		hi := time.Duration(math.MinInt64)
		for i, ri := range tr.runs {
			hi = max(hi, a.runs[ri].span.End)
			tr.maxEnd[i] = hi
		}
	}
}

func (a *analyzer) attributeTask(t *obs.Span) TaskAttribution {
	ta := TaskAttribution{
		App:      t.Attr("app"),
		Executor: t.Attr("executor"),
		Status:   t.Attr("status"),
		StartNS:  int64(t.Start),
		EndNS:    int64(t.End),
	}
	if id, err := strconv.Atoi(t.Attr("task")); err == nil {
		ta.Task = id
	}
	a.evidence(t, &ta)
	ta.Phases = a.sw.decompose(t.Start, t.End, a.ivs)
	return ta
}

// evidence gathers task t's evidence for the sweep: its own intervals
// into a.ivs, and the memoised edge lists of runs that lie inside the
// windows they explain into a.sw.lists. It also fills ta.GPUPct.
func (a *analyzer) evidence(t *obs.Span, ta *TaskAttribution) {
	ivs := a.ivs[:0]

	// Executor drain/restart windows are the weakest evidence: they
	// only claim time no task-specific span explains (fail-fast retry
	// churn while the executor reconfigures).
	for _, r := range a.restarts {
		if ex := r.Attr("executor"); ex == "" || ta.Executor == "" || ex == ta.Executor {
			ivs = append(ivs, interval{r.Start, r.End, PhaseRestartStall, prioRestart})
		}
	}

	for _, ch := range a.children[t.ID] {
		switch {
		case ch.Cat == "htex" && ch.Name == "queue":
			ivs = append(ivs, interval{ch.Start, ch.End, PhaseQueue, prioQueue})
			w := ch.Attr("worker")
			tr := a.tracks[w]
			if w == "" || tr == nil {
				continue
			}
			// Queue wait that overlaps the picked worker's init window
			// is a cold start, not scheduling delay.
			for _, in := range tr.inits {
				lo, hi := max(ch.Start, in.Start), min(ch.End, in.End)
				if hi > lo {
					ivs = append(ivs, interval{lo, hi, PhaseColdStart, prioInitWait})
				}
			}
			// Critical-path reattribution: while the task waited for
			// the worker, it was serving other runs. That wait is
			// caused by — and decomposed along — the blocking runs'
			// phases (their kernel queueing, compute, transfers, host
			// time), clipped to the wait.
			lo, hi := max(ch.Start, t.Start), min(ch.End, t.End)
			i := sort.Search(len(tr.runs), func(i int) bool { return tr.maxEnd[i] > ch.Start })
			for _, ri := range tr.runs[i:] {
				r := &a.runs[ri]
				if r.span.Start >= ch.End {
					break
				}
				if r.span.Parent != t.ID && r.span.End > ch.Start {
					ivs = a.addRun(ivs, r, lo, hi, true)
				}
			}
		case ch.Cat == "htex" && ch.Name == "run":
			if ta.GPUPct == "" {
				ta.GPUPct = ch.Attr("gpu_pct")
			}
			ivs = a.addRun(ivs, &a.runs[a.runOf[ch.ID]], t.Start, t.End, false)
		}
	}
	a.ivs = ivs
}

// addRun adds run r's evidence, clipped to [lo, hi]. Evidence inside
// the window joins the sweep as r's memoised edge list; a run that
// straddles the window's ends is clipped interval by interval into
// ivs, the task's own evidence, which it returns. A blocked run's
// priorities map through blockedPrio either way.
func (a *analyzer) addRun(ivs []interval, r *runMemo, lo, hi time.Duration, blocked bool) []interval {
	if r.n == 0 {
		return ivs
	}
	if lo <= r.lo && r.hi <= hi {
		l := list{edges: a.runEdges[2*r.off : 2*(r.off+r.n)], lo: r.lo, hi: r.hi, blocked: blocked}
		if r.solid {
			l.self = &r.self
		}
		a.sw.lists = append(a.sw.lists, l)
		return ivs
	}
	for _, iv := range a.runIvs[r.off : r.off+r.n] {
		iv.start, iv.end = max(iv.start, lo), min(iv.end, hi)
		if iv.end > iv.start {
			if blocked {
				iv.prio = blockedPrio(iv.prio)
			}
			ivs = append(ivs, iv)
		}
	}
	return ivs
}

// appendDeviceIntervals adds the device-side evidence parented to one
// run span: GPU-context creation, transfers, and kernels.
func appendDeviceIntervals(ivs []interval, kids []*obs.Span) []interval {
	for _, k := range kids {
		switch {
		case k.Cat == "htex" && k.Name == "ctxinit":
			ivs = append(ivs, interval{k.Start, k.End, PhaseColdStart, prioCtxInit})
		case k.Cat == "simgpu" && k.Name == "xfer":
			ph, pr := PhasePCIe, prioPCIe
			if k.Attr("tag") == "weights" {
				ph, pr = PhaseWeightLoad, prioWeights
			}
			ivs = append(ivs, interval{k.Start, k.End, ph, pr})
		case k.Cat == "simgpu":
			// A kernel span: [start,end] is execution; the queue_ns
			// attribute recovers the dispatch delay before it.
			ivs = append(ivs, interval{k.Start, k.End, PhaseCompute, prioCompute})
			if q, err := strconv.ParseInt(k.Attr("queue_ns"), 10, 64); err == nil && q > 0 {
				ivs = append(ivs, interval{k.Start - time.Duration(q), k.Start, PhaseKernelQueue, prioKernQueue})
			}
		}
	}
	return ivs
}

// maxPrio bounds interval priorities: the live set is a 128-bit mask.
const maxPrio = 128

// edge is one clipped interval boundary: delta is +1 at the interval's
// start and -1 at its end.
type edge struct {
	at          time.Duration
	prio, delta int32
}

func edgeAt(x, y edge) int { return cmp.Compare(x.at, y.at) }

func listLo(x, y list) int { return cmp.Compare(x.lo, y.lo) }

// list is one time-sorted edge list the sweep merges: a task's own
// clipped edges or a memoised run's. [lo, hi] spans its first and last
// edge. A blocked list's priorities map through blockedPrio; next links
// the list its merge cursor walks after this one, or is -1. A solid
// run's list carries the run's own decomposition, self.
type list struct {
	edges   []edge
	lo, hi  time.Duration
	blocked bool
	next    int
	self    *Breakdown
}

// floor is the lowest priority a run's list can hold.
func (l *list) floor() int {
	if l.blocked {
		return blockedPrio(prioRun)
	}
	return prioRun
}

// cursor walks one chain of lists whose extents do not overlap; cur
// indexes the list edges belongs to.
type cursor struct {
	edges []edge
	cur   int
}

// sweep is the counted edge sweep's scratch, reused across tasks. Every
// count is back to zero when a sweep ends, so nothing needs resetting.
type sweep struct {
	edges []edge         // the task's own clipped edges
	lists []list         // memoised lists queued for the next decompose
	curs  []cursor       // one per chain of lists
	tails []int          // the last list of each chain
	count [maxPrio]int32 // live intervals per priority
	live  [2]uint64      // bit p set iff count[p] > 0
	phase [maxPrio]Phase // the one phase each priority names
}

// decompose runs the counted edge sweep over [start, end]. ivs are
// clipped to the window and sorted, then merged with the lists queued
// in s.lists, which must lie inside the window; decompose empties
// s.lists.
func (s *sweep) decompose(start, end time.Duration, ivs []interval) Breakdown {
	var b Breakdown
	lists := s.lists
	if end <= start {
		s.lists = lists[:0]
		return b
	}
	edges := s.edges[:0]
	for _, iv := range ivs {
		lo, hi := max(iv.start, start), min(iv.end, end)
		if hi > lo {
			s.phase[iv.prio] = iv.phase
			edges = append(edges, edge{lo, int32(iv.prio), 1}, edge{hi, int32(iv.prio), -1})
		}
	}
	s.edges = edges
	if len(edges) > 0 {
		slices.SortFunc(edges, edgeAt)
		// Runs are queued in start order, so the lists are usually
		// sorted by lo once the task's own list takes its place.
		i := 0
		for i < len(lists) && lists[i].lo < edges[0].at {
			i++
		}
		lists = slices.Insert(lists, i, list{edges: edges, lo: edges[0].at, hi: edges[len(edges)-1].at})
	}
	s.lists = lists[:0]
	if len(lists) == 0 {
		b[PhaseSubmit] = end - start
		return b
	}
	// Time before the first edge is submit; the last edge closes the
	// last evidence, and the rest is other.
	if !slices.IsSortedFunc(lists, listLo) {
		slices.SortFunc(lists, listLo)
	}
	b[PhaseSubmit] = lists[0].lo - start
	at := s.merge(lists, &b)
	b[PhaseOther] += end - at
	return b
}

// merge walks the lists' edges in time order, sorted by lo, adding
// every segment between the first and the last edge to b, and returns
// the last edge's time. A segment takes the highest live priority's
// phase; uncovered, it is retry/backoff. The result depends only on
// the multiset of edges, because nothing accumulates between edges at
// the same time, so ties may go in any order.
//
// Lists are chained first fit by extent, so one cursor walks a chain
// of lists that follow each other in time (the runs on one track) and
// only overlapping chains merge edge by edge. The cursor with the
// earliest edge runs on alone up to the next cursor's earliest edge.
// When that span holds a solid run's whole list and everything live
// ranks below the list, the run decides every segment of its extent,
// so its own decomposition is added instead of its edges. (A list
// walked part way keeps its own priorities live, so it never passes
// the floor test.)
func (s *sweep) merge(lists []list, b *Breakdown) time.Duration {
	curs, tails := s.curs[:0], s.tails[:0]
	for i := range lists {
		lists[i].next = -1
		c := 0
		for c < len(tails) && lists[tails[c]].hi > lists[i].lo {
			c++
		}
		if c < len(tails) {
			lists[tails[c]].next = i
			tails[c] = i
			continue
		}
		tails = append(tails, i)
		curs = append(curs, cursor{lists[i].edges, i})
	}
	at := lists[0].lo
	for len(curs) > 0 {
		c, bound := 0, time.Duration(math.MaxInt64)
		for i := 1; i < len(curs); i++ {
			if h := curs[i].edges[0].at; h < curs[c].edges[0].at {
				bound, c = curs[c].edges[0].at, i
			} else if h < bound {
				bound = h
			}
		}
		cu := &curs[c]
		l := &lists[cu.cur]
		if l.self != nil && l.hi <= bound && s.top() < l.floor() {
			if l.lo > at {
				s.segment(b, at, l.lo)
			}
			b.add(l.self)
			at, cu.edges = l.hi, nil
		} else {
			es, i := cu.edges, 0
			for ; i < len(es) && es[i].at <= bound; i++ {
				e := es[i]
				if e.at > at {
					s.segment(b, at, e.at)
					at = e.at
				}
				p := e.prio
				if l.blocked {
					p = int32(blockedPrio(int(p)))
				}
				s.count[p] += e.delta
				if w, bit := p>>6, uint64(1)<<(p&63); s.count[p] > 0 {
					s.live[w] |= bit
				} else {
					s.live[w] &^= bit
				}
			}
			cu.edges = es[i:]
		}
		if len(cu.edges) > 0 {
			continue
		}
		if cu.cur = l.next; cu.cur >= 0 {
			cu.edges = lists[cu.cur].edges
		} else {
			curs[c] = curs[len(curs)-1]
			curs = curs[:len(curs)-1]
		}
	}
	s.curs, s.tails = curs, tails
	return at
}

// segment adds [from, to) to b under the live set.
func (s *sweep) segment(b *Breakdown, from, to time.Duration) {
	ph := PhaseRetryBackoff
	if p := s.top(); p >= 0 {
		ph = s.phase[p]
	}
	b[ph] += to - from
}

// top returns the highest live priority, or -1 when none is live.
func (s *sweep) top() int {
	if s.live[1] != 0 {
		return 64 + bits.Len64(s.live[1]) - 1
	}
	return bits.Len64(s.live[0]) - 1
}

// buildGroups aggregates tasks into sorted blame profiles.
func (r *Report) buildGroups() {
	type key struct{ scope, executor, app, pct string }
	agg := make(map[key]*Group)
	samples := make(map[key]*metrics.Durations)
	var order []key
	for i := range r.Tasks {
		t := &r.Tasks[i]
		k := key{t.Scope, t.Executor, t.App, t.GPUPct}
		g, ok := agg[k]
		if !ok {
			g = &Group{Scope: k.scope, Executor: k.executor, App: k.app, GPUPct: k.pct}
			agg[k] = g
			samples[k] = &metrics.Durations{}
			order = append(order, k)
		}
		g.Tasks++
		g.Phases.add(&t.Phases)
		samples[k].Add(t.Duration())
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.scope != b.scope {
			return a.scope < b.scope
		}
		if a.executor != b.executor {
			return a.executor < b.executor
		}
		if a.app != b.app {
			return a.app < b.app
		}
		return a.pct < b.pct
	})
	r.Groups = make([]Group, 0, len(order))
	for _, k := range order {
		g := agg[k]
		d := samples[k]
		g.MeanNS = int64(d.Mean())
		g.P50NS = int64(d.Percentile(50))
		g.P95NS = int64(d.Percentile(95))
		g.P99NS = int64(d.Percentile(99))
		r.Groups = append(r.Groups, *g)
	}
}
