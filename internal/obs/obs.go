// Package obs is the unified observability layer: hierarchical spans
// with parent/child causal links plus a typed metrics registry, both
// stamped with virtual time from the simulation clock.
//
// A Collector is per-Env and, like every devent object, must only be
// touched from sim context. Merging across Envs happens at export time
// (WriteChromeTrace, WritePrometheus) in the order collectors are
// passed, so exported output is byte-identical regardless of how the
// Envs were scheduled onto OS threads — the same contract the harness
// package guarantees for report sections.
//
// Collection runs in one of two modes. In the default snapshot mode
// every span is retained until export, exactly as before. Attaching a
// SpanSink (SetSink) switches the collector to streaming mode: ended
// spans are flushed to the sink incrementally, in span-ID order, and
// released from memory, so a run's span footprint is bounded by the
// number of concurrently open spans rather than by run length. Spans
// pinned with PinSpan (long-lived daemon lifecycles such as htex
// workers) are parked aside so they never block the flush frontier;
// they are emitted after all unpinned spans when the collector is
// Closed — the snapshot exporters apply the same pinned-last partition
// so both modes render byte-identical artifacts.
//
// Every method is nil-receiver safe: a nil *Collector (instrumentation
// disabled) is a no-op. Attributes cost nothing to assemble: the
// constructors store numbers unformatted, and the collector copies the
// attributes it keeps into storage it owns, so a call site's variadic
// slice stays on its stack whether or not a collector is attached.
package obs

import (
	"math"
	"slices"
	"strconv"
	"time"
	"unsafe"
)

// Clock supplies virtual timestamps; *devent.Env satisfies it.
type Clock interface {
	Now() time.Duration
}

// SpanID identifies a span within one Collector. 0 means "no span"
// and is valid anywhere a parent is expected.
type SpanID int64

// Attr is one span attribute: a key and a string, integer or float
// value. Numbers are stored unformatted; Span.Attr and the exporters
// format them when they render, so a span nobody renders formats
// nothing.
type Attr struct {
	Key string
	// A string value is p = its bytes (nil when empty), n = its length;
	// a number is p = its kind's tag, n = its bits. Two words keep an
	// Attr the size of a pair of strings.
	p unsafe.Pointer
	n uint64
}

// numTags gives each numeric kind an address that no string's bytes
// occupy.
var numTags [2]byte

var (
	intTag   = unsafe.Pointer(&numTags[0])
	floatTag = unsafe.Pointer(&numTags[1])
)

// String builds a string attribute.
func String(k, v string) Attr {
	if v == "" {
		return Attr{Key: k}
	}
	return Attr{k, unsafe.Pointer(unsafe.StringData(v)), uint64(len(v))}
}

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{k, intTag, uint64(v)} }

// Float builds a float attribute (shortest round-trip formatting).
func Float(k string, v float64) Attr { return Attr{k, floatTag, math.Float64bits(v)} }

// Dur builds a duration attribute holding integer nanoseconds, so
// consumers can recover the exact virtual time.
func Dur(k string, d time.Duration) Attr { return Attr{k, intTag, uint64(d)} }

// isString reports whether the value is a string.
func (a Attr) isString() bool { return a.p != intTag && a.p != floatTag }

// str returns a string value's text.
func (a Attr) str() string { return unsafe.String((*byte)(a.p), int(a.n)) }

// appendNum appends a number's value as value formats it.
func (a Attr) appendNum(b []byte) []byte {
	if a.p == floatTag {
		return strconv.AppendFloat(b, math.Float64frombits(a.n), 'g', -1, 64)
	}
	return strconv.AppendInt(b, int64(a.n), 10)
}

// value returns the value as text: a string verbatim, an integer as
// strconv.FormatInt(v, 10), a float as strconv.FormatFloat(v, 'g', -1,
// 64).
func (a Attr) value() string {
	switch a.p {
	case intTag:
		return strconv.FormatInt(int64(a.n), 10)
	case floatTag:
		return strconv.FormatFloat(math.Float64frombits(a.n), 'g', -1, 64)
	}
	return a.str()
}

// String renders the attribute as key=value.
func (a Attr) String() string { return a.Key + "=" + a.value() }

// Span is one timed activity with a causal parent.
type Span struct {
	ID     SpanID
	Parent SpanID // 0 = root
	Cat    string // subsystem ("dfk", "htex", "simgpu")
	Name   string // activity ("task", "run", kernel name)
	Track  string // rendering row (worker, context, task lane)
	Start  time.Duration
	End    time.Duration // -1 while open
	Attrs  []Attr

	// ptrack is the parent span's track, captured at creation so
	// exporters can draw cross-track flow arrows without holding the
	// parent span in memory (the parent may already be flushed by the
	// time a streaming sink renders the child).
	ptrack string
	// pinned marks a long-lived daemon lifecycle span (PinSpan): it is
	// excluded from the streaming flush frontier and emitted after all
	// unpinned spans, in both streaming and snapshot export.
	pinned bool
	// drop marks a span excluded by deterministic sampling
	// (SetSampleMod); it is retained and visible to listeners and
	// Spans(), but skipped by sinks and trace export.
	drop bool
}

// Duration returns End-Start (negative while the span is open).
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Attr returns the value of the named attribute as text ("" if
// absent); numbers are formatted as Attr's exporters format them.
func (s Span) Attr(key string) string {
	if a := s.find(key); a != nil {
		return a.value()
	}
	return ""
}

// AttrInt returns the named Int or Dur attribute's value; ok is false
// when the attribute is absent or holds a string or a float.
func (s Span) AttrInt(key string) (v int64, ok bool) {
	if a := s.find(key); a != nil && a.p == intTag {
		return int64(a.n), true
	}
	return 0, false
}

// find returns the first attribute with the key, or nil.
func (s Span) find(key string) *Attr {
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			return &s.Attrs[i]
		}
	}
	return nil
}

// SpanSink receives spans released by a streaming collector. EmitSpan
// is called from sim context, in span-ID order for unpinned spans
// (pinned spans arrive last, at Close); the *Span is borrowed and only
// valid for the duration of the call. Spans still open at Close arrive
// clamped to the final virtual time, mirroring Spans() snapshots.
type SpanSink interface {
	EmitSpan(s *Span)
}

// Collector accumulates spans and metrics for one Env.
type Collector struct {
	clock Clock
	scope string
	pid   int

	// spans is the retained window in span-ID order: everything ever
	// recorded in snapshot mode, only the unflushed suffix when a sink
	// is attached. spans[i].ID == winBase + SpanID(i); entries below
	// head have been flushed and are reclaimed by compaction.
	spans   []Span
	head    int
	winBase SpanID

	// attrs is the chunk span attributes are copied into (see keep).
	attrs []Attr

	// parked holds pinned spans the flush frontier has skipped, in ID
	// order; parkedIdx resolves their IDs for EndSpan after the window
	// copy is compacted away.
	parked    []Span
	parkedIdx map[SpanID]int

	nextID        SpanID
	openCount     int
	maxRetained   int
	retainedNoted int

	sink      SpanSink
	closed    bool
	sampleMod uint32

	reg     *Registry
	onStart []func(Span)
	onEnd   []func(Span)

	// Scheduler instruments, resolved once so the per-event Dispatched
	// callback is a single field increment.
	cDispatched *Counter
	cSpawned    *Counter
	gProcs      *Gauge

	// Collector self-telemetry, pre-resolved for the same reason: the
	// observability pipeline observes itself, so the tsdb can chart
	// span volume, flush progress, sampling drops, and the retained
	// window without touching the span path's allocation budget.
	cSpanStarted *Counter
	cSpanEnded   *Counter
	cSpanFlushed *Counter
	cSampledOut  *Counter
	gRetained    *Gauge
}

// New creates a collector over the given clock.
func New(clock Clock) *Collector {
	c := &Collector{
		clock:   clock,
		winBase: 1,
		reg:     NewRegistry(clock),
	}
	c.cDispatched = c.reg.Counter("devent_events_dispatched_total")
	c.cSpawned = c.reg.Counter("devent_procs_spawned_total")
	c.gProcs = c.reg.Gauge("devent_procs_live")
	c.cSpanStarted = c.reg.Counter("obs_spans_started_total")
	c.cSpanEnded = c.reg.Counter("obs_spans_ended_total")
	c.cSpanFlushed = c.reg.Counter("obs_spans_flushed_total")
	c.cSampledOut = c.reg.Counter("obs_spans_sampled_out_total")
	c.gRetained = c.reg.Gauge("obs_spans_retained_peak")
	return c
}

// SetScope names the collector's origin (experiment cell); exporters
// use it as the process name / scope label.
func (c *Collector) SetScope(s string) {
	if c != nil {
		c.scope = s
	}
}

// Scope returns the collector's scope name.
func (c *Collector) Scope() string {
	if c == nil {
		return ""
	}
	return c.scope
}

// SetTracePID sets the trace process id the collector's spans render
// under when a trace section is built from the collector alone, as a
// live span tail is: the run's position in its trace export, numbered
// from 1. Snapshot exports number their collectors by argument
// position instead.
func (c *Collector) SetTracePID(pid int) {
	if c != nil {
		c.pid = pid
	}
}

// TracePID returns the pid set by SetTracePID, 1 when unset.
func (c *Collector) TracePID() int {
	if c == nil || c.pid <= 0 {
		return 1
	}
	return c.pid
}

// Now returns the current virtual time of the collector's clock.
func (c *Collector) Now() time.Duration {
	if c == nil {
		return 0
	}
	return c.clock.Now()
}

// Metrics returns the collector's registry (nil for a nil collector;
// the nil registry is itself a no-op).
func (c *Collector) Metrics() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// SetSink attaches a streaming sink and switches the collector to
// streaming mode: ended unpinned spans are flushed to the sink in
// span-ID order and released from memory. Attach the sink before the
// run starts; call Close at run end to flush the remainder. A nil sink
// returns to snapshot-only retention for spans recorded afterwards.
func (c *Collector) SetSink(sink SpanSink) {
	if c == nil {
		return
	}
	c.sink = sink
	if sink != nil {
		c.advance()
	}
}

// AddSink tees sink onto the collector's stream: every span the current
// sink receives, sink receives next, in the same order. Without a
// current sink it is SetSink. Like SetSink, call it before the run
// starts.
func (c *Collector) AddSink(sink SpanSink) {
	if c == nil || sink == nil {
		return
	}
	if c.sink == nil {
		c.SetSink(sink)
		return
	}
	c.sink = teeSink{c.sink, sink}
}

type teeSink [2]SpanSink

func (t teeSink) EmitSpan(s *Span) {
	t[0].EmitSpan(s)
	t[1].EmitSpan(s)
}

// Streaming reports whether a sink is attached.
func (c *Collector) Streaming() bool { return c != nil && c.sink != nil }

// SetSampleMod enables deterministic 1-in-n sampling of sink emission:
// a root span (Parent == 0) is kept iff fnv32a(Track) % n == 0, and
// every descendant inherits its root's verdict, so sampled traces keep
// whole causal trees. Pinned spans are always kept. n <= 1 disables
// sampling. The rule depends only on span content — never on wall
// clock or randomness — so sampled output is byte-deterministic.
// Sampling affects sinks and trace export only; Spans(), listeners,
// and leak checks always see every span.
func (c *Collector) SetSampleMod(n int) {
	if c == nil {
		return
	}
	if n <= 1 {
		c.sampleMod = 0
		return
	}
	c.sampleMod = uint32(n)
}

// span resolves a live span by ID: parked pinned spans first (their
// window copy may be stale or compacted away), then the retained
// window. Returns nil for flushed or unknown IDs.
func (c *Collector) span(id SpanID) *Span {
	if i, ok := c.parkedIdx[id]; ok {
		return &c.parked[i]
	}
	if id >= c.winBase {
		if i := int(id - c.winBase); i < len(c.spans) {
			return &c.spans[i]
		}
	}
	return nil
}

// StartSpan opens a span at the current virtual time and returns its
// ID for EndSpan and for parenting children. parent 0 makes a root.
func (c *Collector) StartSpan(cat, name, track string, parent SpanID, attrs ...Attr) SpanID {
	if c == nil {
		return 0
	}
	c.nextID++
	id := c.nextID
	s := Span{
		ID: id, Parent: parent, Cat: cat, Name: name, Track: track,
		Start: c.clock.Now(), End: -1, Attrs: c.keep(nil, attrs),
	}
	c.stamp(&s)
	c.spans = append(c.spans, s)
	c.openCount++
	c.cSpanStarted.Inc()
	c.noteRetained()
	for _, fn := range c.onStart {
		fn(s)
	}
	return id
}

// stamp captures creation-time derived fields: the parent's track (for
// cross-track flow rendering after the parent is flushed) and the
// sampling verdict.
func (c *Collector) stamp(s *Span) {
	if s.Parent != 0 {
		if ps := c.span(s.Parent); ps != nil {
			s.ptrack = ps.Track
			s.drop = ps.drop
			return
		}
	}
	if c.sampleMod > 1 {
		s.drop = fnv32a(s.Track)%c.sampleMod != 0
	}
}

// EndSpan closes the span at the current virtual time, appending any
// final attributes. Ending an unknown or already-ended span is a
// no-op. OnSpanEnd listeners fire with the completed span.
func (c *Collector) EndSpan(id SpanID, attrs ...Attr) {
	if c == nil || id == 0 {
		return
	}
	s := c.span(id)
	if s == nil || s.End >= 0 {
		return
	}
	s.End = c.clock.Now()
	if len(attrs) > 0 {
		s.Attrs = c.keep(s.Attrs, attrs)
	}
	c.openCount--
	c.cSpanEnded.Inc()
	c.fireEnd(*s)
	if c.sink != nil {
		c.advance()
	}
}

// AddSpan records a span retroactively with explicit start/end times
// (e.g. a kernel whose record is only known at completion). Listeners
// fire as for EndSpan.
func (c *Collector) AddSpan(cat, name, track string, parent SpanID, start, end time.Duration, attrs ...Attr) SpanID {
	if c == nil {
		return 0
	}
	if end < start {
		end = start
	}
	c.nextID++
	id := c.nextID
	s := Span{
		ID: id, Parent: parent, Cat: cat, Name: name, Track: track,
		Start: start, End: end, Attrs: c.keep(nil, attrs),
	}
	c.stamp(&s)
	c.spans = append(c.spans, s)
	c.cSpanStarted.Inc()
	c.cSpanEnded.Inc()
	c.noteRetained()
	c.fireEnd(s)
	if c.sink != nil {
		c.advance()
	}
	return id
}

// PinSpan marks a span as a long-lived daemon lifecycle (e.g. an htex
// worker): the streaming flush frontier parks it aside instead of
// waiting for it to end, and exporters render it after all unpinned
// spans. Pin immediately after StartSpan, before recording children.
// Pinned spans are exempt from sampling.
func (c *Collector) PinSpan(id SpanID) {
	if c == nil || id == 0 {
		return
	}
	if s := c.span(id); s != nil {
		s.pinned = true
		s.drop = false
	}
}

// advance moves the flush frontier: emits ended unpinned spans in ID
// order, parks pinned spans, and stops at the first still-open
// unpinned span. Consumed prefix is reclaimed by compaction.
func (c *Collector) advance() {
	if c.closed {
		return
	}
	for c.head < len(c.spans) {
		s := &c.spans[c.head]
		if s.pinned {
			c.park(*s)
		} else if s.End >= 0 {
			c.emit(s)
		} else {
			break
		}
		c.head++
	}
	// Flushed slots are cleared so they do not keep attribute chunks
	// reachable.
	if c.head == len(c.spans) {
		clear(c.spans)
		c.spans = c.spans[:0]
		c.head = 0
		c.winBase = c.nextID + 1
	} else if c.head >= 1024 && c.head*2 >= len(c.spans) {
		n := copy(c.spans, c.spans[c.head:])
		clear(c.spans[n:])
		c.spans = c.spans[:n]
		c.winBase += SpanID(c.head)
		c.head = 0
	}
}

// Attribute chunks start at minAttrChunk attributes and double up to
// maxAttrChunk (about 8 KiB), so a collector that records few spans
// stays small and one kept after its run holds little: 1024-attribute
// chunks raised the fleet benchmark's peak RSS by 5 %.
const (
	minAttrChunk = 16
	maxAttrChunk = 256
)

// keep copies head followed by tail into collector-owned storage and
// returns the copy with its capacity clipped to its length, so a
// consumer's append reallocates instead of writing over the next
// span's attributes. Storage is never reused: a chunk is garbage once
// no span refers to it, so a Span value handed out stays valid.
func (c *Collector) keep(head, tail []Attr) []Attr {
	n := len(head) + len(tail)
	if n == 0 {
		return nil
	}
	if len(c.attrs)+n > cap(c.attrs) {
		// Grow, unlike make, rounds the capacity up to fill the
		// allocation's size class.
		c.attrs = slices.Grow([]Attr(nil), max(n, min(2*cap(c.attrs), maxAttrChunk), minAttrChunk))
	}
	i := len(c.attrs)
	c.attrs = append(append(c.attrs, head...), tail...)
	return c.attrs[i:len(c.attrs):len(c.attrs)]
}

func (c *Collector) park(s Span) {
	if c.parkedIdx == nil {
		c.parkedIdx = make(map[SpanID]int)
	}
	c.parkedIdx[s.ID] = len(c.parked)
	c.parked = append(c.parked, s)
}

func (c *Collector) emit(s *Span) {
	if s.drop {
		c.cSampledOut.Inc()
		return
	}
	c.cSpanFlushed.Inc()
	c.sink.EmitSpan(s)
}

func (c *Collector) noteRetained() {
	if r := len(c.spans) - c.head + len(c.parked); r > c.maxRetained {
		c.maxRetained = r
		// The gauge trails the exact high-water by at most 1/16: a
		// snapshot-mode window grows with every span, and appending a
		// step-history sample each time would make the gauge history
		// itself scale with run length. MaxRetained stays exact.
		if r >= c.retainedNoted+c.retainedNoted/16+1 {
			c.retainedNoted = r
			c.gRetained.Set(float64(r))
		}
	}
}

// MaxRetained returns the high-water mark of spans held in memory at
// once. In snapshot mode this equals Len(); with a sink attached it is
// bounded by concurrently open spans plus pinned daemons — the number
// the scale scenario asserts stays flat as task count grows.
func (c *Collector) MaxRetained() int {
	if c == nil {
		return 0
	}
	return c.maxRetained
}

// Close flushes a streaming collector at run end: remaining unpinned
// spans first (clamped to the final virtual time if still open), then
// every pinned span, all in ID order within each group — the same
// partition the snapshot exporters use. Spans stay retained and
// unclamped in the collector itself, so CheckClosed and Spans() keep
// working after Close. Further spans must not be recorded after Close;
// no-op without a sink, on repeat calls, and on a nil collector.
func (c *Collector) Close() {
	if c == nil || c.sink == nil || c.closed {
		return
	}
	c.advance()
	c.closed = true
	now := c.clock.Now()
	for i := c.head; i < len(c.spans); i++ {
		if s := c.spans[i]; !s.pinned {
			clampSpan(&s, now)
			c.emit(&s)
		}
	}
	for i := range c.parked {
		s := c.parked[i]
		clampSpan(&s, now)
		c.emit(&s)
	}
	for i := c.head; i < len(c.spans); i++ {
		if s := c.spans[i]; s.pinned {
			clampSpan(&s, now)
			c.emit(&s)
		}
	}
}

func clampSpan(s *Span, now time.Duration) {
	if s.End < s.Start {
		s.End = now
		if s.End < s.Start {
			s.End = s.Start
		}
	}
}

func (c *Collector) fireEnd(s Span) {
	for _, fn := range c.onEnd {
		fn(s)
	}
}

// OnSpanEnd registers a listener called with every completed span
// (EndSpan and AddSpan), in registration order, from sim context.
func (c *Collector) OnSpanEnd(fn func(Span)) {
	if c != nil {
		c.onEnd = append(c.onEnd, fn)
	}
}

// OnSpanStart registers a listener called with every span opened by
// StartSpan (not AddSpan, whose spans are already complete when
// recorded), in registration order, from sim context. Streaming
// analyzers use it to track open windows without holding the span.
func (c *Collector) OnSpanStart(fn func(Span)) {
	if c != nil {
		c.onStart = append(c.onStart, fn)
	}
}

// Len returns the number of spans ever recorded, including spans
// already flushed to a sink.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return int(c.nextID)
}

// OpenSpans returns how many spans are still open.
func (c *Collector) OpenSpans() int {
	if c == nil {
		return 0
	}
	return c.openCount
}

// CheckClosed returns the spans still open, in start order: the
// open-span leak check. At run end only daemon lifecycles that the
// drain legitimately interrupts (htex worker spans) should remain;
// anything else is instrumentation that forgot to EndSpan. Works
// identically in streaming mode — open spans are never flushed, and
// Close clamps only the copies it emits — so leak detection keeps full
// fidelity with a sink attached.
func (c *Collector) CheckClosed() []Span {
	if c == nil || c.openCount == 0 {
		return nil
	}
	out := make([]Span, 0, c.openCount)
	for i := range c.parked {
		if c.parked[i].End < 0 {
			out = append(out, c.parked[i])
		}
	}
	for i := c.head; i < len(c.spans); i++ {
		if c.spans[i].End < 0 {
			out = append(out, c.spans[i])
		}
	}
	return out
}

// Spans returns a snapshot of the retained spans in emission (ID)
// order: all spans ever recorded in snapshot mode; only parked pinned
// spans plus the unflushed window in streaming mode (flushed spans
// have left memory — that is the point of streaming). Spans still open
// (e.g. daemon worker lifecycles when the simulation drains) are
// clamped to end at the current virtual time, so every snapshot
// satisfies End >= Start.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	now := c.clock.Now()
	out := make([]Span, 0, len(c.parked)+len(c.spans)-c.head)
	out = append(out, c.parked...)
	out = append(out, c.spans[c.head:]...)
	for i := range out {
		clampSpan(&out[i], now)
	}
	return out
}

// fnv32a is the 32-bit FNV-1a hash, inlined so sampling stays
// allocation-free and dependency-free.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// ProcSpawned implements the devent Observer hook.
func (c *Collector) ProcSpawned(name string, at time.Duration) {
	if c == nil {
		return
	}
	c.cSpawned.Inc()
	c.gProcs.Add(1)
}

// ProcExited implements the devent Observer hook.
func (c *Collector) ProcExited(name string, at time.Duration) {
	if c == nil {
		return
	}
	c.gProcs.Add(-1)
}

// Dispatched implements the devent Observer hook; it fires once per
// executed event and must stay allocation-free.
func (c *Collector) Dispatched(at time.Duration) {
	if c == nil {
		return
	}
	c.cDispatched.Inc()
}
