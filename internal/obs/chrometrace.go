package obs

import (
	"bufio"
	"io"
	"strconv"
	"time"
)

// The Chrome trace-event JSON envelope. Every event in the stream is
// written preceded by ",\n"; a commaDropper strips the very first
// comma so the first event follows the opening bracket with a bare
// newline. Rendering every event through the same TraceSection code in
// both snapshot and streaming mode makes the two byte-identical by
// construction.
const traceHeader = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
const traceTrailer = "\n]}\n"

// TraceHeader is the artifact envelope prefix, exported so the live
// /spans endpoint can serve a raw stream whose bytes prefix-match the
// snapshot export.
const TraceHeader = traceHeader

// commaDropper strips the leading comma from the first non-empty write
// it sees, turning a concatenation of ",\n"-prefixed events into a
// valid JSON array body.
type commaDropper struct {
	w       io.Writer
	dropped bool
}

func (d *commaDropper) Write(p []byte) (int, error) {
	if !d.dropped && len(p) > 0 {
		d.dropped = true
		if p[0] == ',' {
			n, err := d.w.Write(p[1:])
			return n + 1, err
		}
	}
	return d.w.Write(p)
}

// TraceSection renders one collector's spans as the trace events of a
// single process (pid). It implements SpanSink, so it can be attached
// directly to a streaming collector, and it is also the rendering core
// of the snapshot WriteChromeTrace. Events are written to w as they
// are emitted, each preceded by ",\n"; tracks become tids in
// first-seen order. Section output composed through a TraceStream (or
// WriteChromeTrace's internal commaDropper) forms the full artifact.
type TraceSection struct {
	w    io.Writer
	pid  int
	tids map[string]int
	buf  []byte
	err  error
}

// NewTraceSection starts a section for pid, immediately emitting its
// process_name metadata ("env<pid>" when scope is empty).
func NewTraceSection(w io.Writer, pid int, scope string) *TraceSection {
	ts := &TraceSection{w: w, pid: pid, tids: make(map[string]int)}
	if scope == "" {
		scope = "env" + strconv.Itoa(pid)
	}
	ts.appendMeta(0, "process_name", scope)
	ts.flush()
	return ts
}

// Err returns the first write error encountered, if any.
func (ts *TraceSection) Err() error { return ts.err }

// EmitSpan renders one complete event (plus thread metadata for
// first-seen tracks and flow events for cross-track parent links).
// Implements SpanSink; also safe to call with snapshot copies.
func (ts *TraceSection) EmitSpan(s *Span) {
	tid := ts.tid(s.Track)
	ts.appendComplete(tid, s)
	// Cross-track causal link: flow from the parent's slice to this
	// span's start. The parent's track was captured at span creation,
	// so this needs no lookup into (possibly already flushed) spans.
	if s.Parent != 0 && s.ptrack != "" && s.ptrack != s.Track {
		ptid := ts.tid(s.ptrack)
		ts.appendFlow("s", ptid, s.Start, int64(s.ID), false)
		ts.appendFlow("f", tid, s.Start, int64(s.ID), true)
	}
	ts.flush()
}

func (ts *TraceSection) flush() {
	if len(ts.buf) == 0 {
		return
	}
	if _, err := ts.w.Write(ts.buf); err != nil && ts.err == nil {
		ts.err = err
	}
	ts.buf = ts.buf[:0]
}

// tid resolves a track to its thread id, appending the thread_name
// metadata event on first sight.
func (ts *TraceSection) tid(track string) int {
	if id, ok := ts.tids[track]; ok {
		return id
	}
	id := len(ts.tids) + 1
	ts.tids[track] = id
	ts.appendMeta(id, "thread_name", track)
	return id
}

func (ts *TraceSection) appendMeta(tid int, name, value string) {
	ts.buf = append(ts.buf, ",\n{\"ph\":\"M\",\"pid\":"...)
	ts.buf = strconv.AppendInt(ts.buf, int64(ts.pid), 10)
	if tid > 0 {
		ts.buf = append(ts.buf, ",\"tid\":"...)
		ts.buf = strconv.AppendInt(ts.buf, int64(tid), 10)
	}
	ts.buf = append(ts.buf, ",\"name\":\""...)
	ts.buf = append(ts.buf, name...)
	ts.buf = append(ts.buf, "\",\"args\":{\"name\":"...)
	ts.buf = appendQuoted(ts.buf, value)
	ts.buf = append(ts.buf, "}}"...)
}

func (ts *TraceSection) appendComplete(tid int, s *Span) {
	ts.buf = append(ts.buf, ",\n{\"ph\":\"X\",\"pid\":"...)
	ts.buf = strconv.AppendInt(ts.buf, int64(ts.pid), 10)
	ts.buf = append(ts.buf, ",\"tid\":"...)
	ts.buf = strconv.AppendInt(ts.buf, int64(tid), 10)
	ts.buf = append(ts.buf, ",\"ts\":"...)
	ts.buf = appendUsec(ts.buf, s.Start)
	ts.buf = append(ts.buf, ",\"dur\":"...)
	ts.buf = appendUsec(ts.buf, s.End-s.Start)
	ts.buf = append(ts.buf, ",\"cat\":"...)
	ts.buf = appendQuoted(ts.buf, s.Cat)
	ts.buf = append(ts.buf, ",\"name\":"...)
	ts.buf = appendQuoted(ts.buf, s.Name)
	ts.buf = append(ts.buf, ",\"args\":{\"id\":"...)
	ts.buf = strconv.AppendInt(ts.buf, int64(s.ID), 10)
	if s.Parent != 0 {
		ts.buf = append(ts.buf, ",\"parent\":"...)
		ts.buf = strconv.AppendInt(ts.buf, int64(s.Parent), 10)
	}
	for _, a := range s.Attrs {
		ts.buf = append(ts.buf, ',')
		ts.buf = appendQuoted(ts.buf, a.Key)
		ts.buf = append(ts.buf, ':')
		if a.isString() {
			ts.buf = appendQuoted(ts.buf, a.str())
		} else {
			// A formatted number needs no escaping.
			ts.buf = append(a.appendNum(append(ts.buf, '"')), '"')
		}
	}
	ts.buf = append(ts.buf, "}}"...)
}

func (ts *TraceSection) appendFlow(ph string, tid int, at time.Duration, id int64, bindEnclosing bool) {
	ts.buf = append(ts.buf, ",\n{\"ph\":\""...)
	ts.buf = append(ts.buf, ph...)
	ts.buf = append(ts.buf, "\",\"pid\":"...)
	ts.buf = strconv.AppendInt(ts.buf, int64(ts.pid), 10)
	ts.buf = append(ts.buf, ",\"tid\":"...)
	ts.buf = strconv.AppendInt(ts.buf, int64(tid), 10)
	ts.buf = append(ts.buf, ",\"ts\":"...)
	ts.buf = appendUsec(ts.buf, at)
	ts.buf = append(ts.buf, ",\"id\":"...)
	ts.buf = strconv.AppendInt(ts.buf, id, 10)
	ts.buf = append(ts.buf, ",\"cat\":\"link\",\"name\":\"link\""...)
	if bindEnclosing {
		ts.buf = append(ts.buf, ",\"bp\":\"e\""...)
	}
	ts.buf = append(ts.buf, '}')
}

// appendUsec renders a virtual time as fractional microseconds, the
// unit of the trace-event format, keeping nanosecond precision: the
// bytes of strconv.AppendFloat(b, float64(d)/1e3, 'f', 3, 64). Below
// 2^50 ns (about 13 days) that quotient rounds to d/1000 exactly, so
// the integer digits are the same bytes; at and above it, and for
// negative d, the float path runs, since near 2^53 it drops digits.
func appendUsec(b []byte, d time.Duration) []byte {
	if d < 0 || d >= 1<<50 {
		return strconv.AppendFloat(b, float64(d)/1e3, 'f', 3, 64)
	}
	b = strconv.AppendInt(b, int64(d/1000), 10)
	ns := d % 1000
	return append(b, '.', byte('0'+ns/100), byte('0'+ns/10%10), byte('0'+ns%10))
}

// appendQuoted appends s as strconv.AppendQuote does. A string of
// printable ASCII without '"' or '\' quotes to itself, so it is
// appended raw; anything else takes strconv's escaping.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// TraceStream writes a complete Chrome trace artifact incrementally:
// the envelope once, then any number of sections — rendered live via
// Section, or spliced from pre-rendered section bytes via Append (the
// sharded-run merge path). Close writes the trailer and flushes.
type TraceStream struct {
	bw   *bufio.Writer
	d    *commaDropper
	npid int
}

// NewTraceStream writes the envelope header to w and returns a stream
// ready for sections.
func NewTraceStream(w io.Writer) *TraceStream {
	bw := bufio.NewWriter(w)
	bw.WriteString(traceHeader)
	return &TraceStream{bw: bw, d: &commaDropper{w: bw}}
}

// Section starts the next live section (pids are assigned
// sequentially). Sections must be written one at a time, in order;
// concurrent producers should render into buffers with NewTraceSection
// and splice them with Append instead.
func (t *TraceStream) Section(scope string) *TraceSection {
	t.npid++
	return NewTraceSection(t.d, t.npid, scope)
}

// Append splices a pre-rendered section byte stream (the output of a
// TraceSection writing to a buffer or spill file) into the artifact.
func (t *TraceStream) Append(r io.Reader) error {
	_, err := io.Copy(t.d, r)
	return err
}

// Close writes the trailer and flushes. The stream is unusable after.
func (t *TraceStream) Close() error {
	t.bw.WriteString(traceTrailer)
	return t.bw.Flush()
}

// WriteChromeTrace emits the collectors' spans as Chrome trace-event
// JSON ("X" complete events), loadable in Perfetto or chrome://tracing.
//
// Each collector becomes one process (pid = position in the argument
// list, named by its scope); each track becomes a thread in first-seen
// order. Causal links are carried two ways: every event's args hold
// the span's id and parent id, and parent/child pairs on different
// tracks additionally get flow ("s"/"f") events so Perfetto draws the
// arrow, e.g. from a DFK task lane to the worker that ran it.
//
// Within each process, unpinned spans appear in emission (ID) order
// and pinned daemon-lifecycle spans follow at the end — the same
// partition a streaming collector produces (see Collector.Close), so
// snapshot and streaming runs render byte-identical artifacts. The
// JSON is written by hand in a fixed field order — no map iteration —
// so output is byte-identical for identical inputs.
func WriteChromeTrace(w io.Writer, collectors ...*Collector) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(traceHeader)
	d := &commaDropper{w: bw}
	for ci, c := range collectors {
		if c == nil {
			continue
		}
		sec := NewTraceSection(d, ci+1, c.Scope())
		c.EachSpan(func(s *Span) {
			if !s.pinned && !s.drop {
				sec.EmitSpan(s)
			}
		})
		c.EachSpan(func(s *Span) {
			if s.pinned && !s.drop {
				sec.EmitSpan(s)
			}
		})
	}
	bw.WriteString(traceTrailer)
	return bw.Flush()
}
