package tsdb

import (
	"math"
	"math/bits"
	"time"
)

// This file holds the alert engine's sliding windows. Each window of a
// scrape-driven rule keeps incremental state bound to its series, so
// an evaluation costs O(1) amortised instead of a rescan of every
// sample inside the window:
//
//   - the series feeds each pushed sample to its bound windows, and a
//     full ring evicts its head sample from every window still holding
//     it before overwriting the slot;
//   - an evaluation evicts samples with T < now-window from the left.
//     Evaluations run on one virtual clock, so the cutoff only moves
//     forward and eviction is a forward walk.
//
// Sample i of a series (oldest first) has sequence number drops+i, so
// a window names its samples by sequence and reads values back from
// the ring. max, flips and rate are bit-identical to the rescans in
// alerts.go; avg is the exact window sum, rounded once to nearest-even,
// divided by the sample count — the same value the ad-hoc query path
// computes through the same accumulator.

// window is one (rule, window) pair's sliding state over its series.
type window struct {
	s    *Series
	span time.Duration
	fn   int
	lo   int64 // sequence number of the window's oldest sample

	// q is the max rule's monotone deque of sequence numbers (values
	// non-increasing front to back, the earliest of equal values kept)
	// or the flips rule's FIFO holding, per direction change, the
	// sequence number of the earlier nonzero delta. Its buffer is sized
	// to the ring, which bounds both.
	q   seqQueue
	sum exactSum // avg only

	// flips: the previous sample and the newest nonzero delta.
	prev    float64
	hasPrev bool
	dir     int8
	dirSeq  int64
}

// fill (re)initialises the window from the series' retained samples:
// at bind time and after the ring grows.
func (w *window) fill() {
	s := w.s
	*w = window{s: s, span: w.span, fn: w.fn, lo: s.drops}
	if w.fn == alertFnMax || w.fn == alertFnFlips {
		w.q.buf = make([]int64, len(s.ring))
	}
	for i := 0; i < s.n; i++ {
		w.add(s.drops+int64(i), s.at(i).V)
	}
}

// add feeds the series' newest sample, already written to the ring.
func (w *window) add(seq int64, v float64) {
	switch w.fn {
	case alertFnAvg:
		w.sum.add(v, 1)
	case alertFnMax:
		// A NaN never wins a later comparison; a NaN as the window's
		// first sample is answered in eval.
		if v != v {
			return
		}
		for w.q.n > 0 && w.s.sample(w.q.back()).V < v {
			w.q.popBack()
		}
		w.q.pushBack(seq)
	case alertFnFlips:
		if w.hasPrev {
			var d int8
			switch delta := v - w.prev; {
			case delta > 0:
				d = 1
			case delta < 0:
				d = -1
			}
			if d != 0 {
				// A flip counts while its earlier delta is inside the
				// window, i.e. its sequence number exceeds lo.
				if w.dir == -d && w.dirSeq > w.lo {
					w.q.pushBack(w.dirSeq)
				}
				w.dir, w.dirSeq = d, seq
			}
		}
		w.prev, w.hasPrev = v, true
	}
}

// drop evicts the window's oldest sample. The window must be non-empty
// and the sample still retained.
func (w *window) drop() {
	if w.fn == alertFnAvg {
		w.sum.add(w.s.sample(w.lo).V, -1)
	}
	w.lo++
	switch w.fn {
	case alertFnMax:
		for w.q.n > 0 && w.q.front() < w.lo {
			w.q.popFront()
		}
	case alertFnFlips:
		for w.q.n > 0 && w.q.front() <= w.lo {
			w.q.popFront()
		}
	}
}

// eval answers the window over [now-span, now]; ok is false when it
// holds too few samples, exactly as the rescan would.
func (w *window) eval(now time.Duration) (float64, bool) {
	s := w.s
	cutoff := now - w.span
	end := s.drops + int64(s.n)
	for w.lo < end && s.sample(w.lo).T < cutoff {
		w.drop()
	}
	n := end - w.lo
	switch w.fn {
	case alertFnAvg:
		if n == 0 {
			return 0, false
		}
		return w.sum.float() / float64(n), true
	case alertFnRate:
		if n < 2 {
			return 0, false
		}
		return rateOf(s.sample(w.lo), s.at(s.n-1))
	case alertFnMax:
		if n == 0 {
			return 0, false
		}
		if first := s.sample(w.lo).V; first != first {
			return first, true
		}
		return s.sample(w.q.front()).V, true
	default: // alertFnFlips
		if n < 2 {
			return 0, false
		}
		return float64(w.q.n), true
	}
}

// sample returns the retained sample with sequence number seq.
func (s *Series) sample(seq int64) Sample { return s.at(int(seq - s.drops)) }

// grow enlarges the ring to capacity samples, keeping the retained
// samples (and their sequence numbers) in order, and refills the bound
// windows so their buffers match the new size.
func (s *Series) grow(capacity int) {
	ring := make([]Sample, capacity)
	for i := 0; i < s.n; i++ {
		ring[i] = s.at(i)
	}
	s.ring, s.head = ring, 0
	for _, w := range s.wins {
		w.fill()
	}
}

// seqQueue is a fixed-capacity ring deque of sequence numbers.
type seqQueue struct {
	buf     []int64
	head, n int
}

func (q *seqQueue) front() int64 { return q.buf[q.head] }
func (q *seqQueue) back() int64  { return q.buf[(q.head+q.n-1)%len(q.buf)] }
func (q *seqQueue) popBack()     { q.n-- }

func (q *seqQueue) pushBack(seq int64) {
	q.buf[(q.head+q.n)%len(q.buf)] = seq
	q.n++
}

func (q *seqQueue) popFront() {
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}

// sumChunks sizes exactSum: every finite float64 is an integer number
// of 2^-1074 units below 2^2098, and a value's 53-bit mantissa lands in
// at most three 32-bit chunks ending at chunk 65; the two chunks above
// take carries.
const sumChunks = 68

const chunkMask = 1<<32 - 1

// exactSum is an exact accumulator over float64 values. Finite values
// are kept as one fixed-point integer in 2^-1074 units, split into
// 32-bit chunks held in int64 words: adding or removing a value touches
// at most three words and never carries, and each word stays below
// count·2^32 in magnitude, so a window of fewer than 2^31 samples
// cannot overflow. NaNs and infinities are counted apart.
type exactSum struct {
	c       [sumChunks]int64
	lo, end int // every nonzero word of c lies in c[lo:end]
	nan     int
	pos     int // +Inf count
	neg     int // -Inf count
	scratch [sumChunks]uint64
}

// add adds sign·x (sign is +1 to add, -1 to remove a value added
// before).
func (a *exactSum) add(x float64, sign int) {
	b := math.Float64bits(x)
	e := int(b>>52) & 0x7ff
	m := b & (1<<52 - 1)
	switch {
	case e == 0x7ff:
		switch {
		case m != 0:
			a.nan += sign
		case b>>63 == 0:
			a.pos += sign
		default:
			a.neg += sign
		}
		return
	case e == 0:
		if m == 0 {
			return
		}
		e = 1
	default:
		m |= 1 << 52
	}
	s := int64(sign)
	if b>>63 != 0 {
		s = -s
	}
	// x = m·2^(e-1) units of 2^-1074.
	k, r := (e-1)/32, uint(e-1)%32
	low, high := m<<r, m>>(64-r)
	a.c[k] += s * int64(low&chunkMask)
	a.c[k+1] += s * int64(low>>32)
	a.c[k+2] += s * int64(high)
	if a.lo >= a.end {
		a.lo, a.end = k, k+3
	} else {
		a.lo, a.end = min(a.lo, k), max(a.end, k+3)
	}
}

// float returns the sum rounded once to the nearest float64, ties to
// even: NaN if a NaN or both infinities are present, otherwise the
// infinity present, otherwise the rounded exact sum of the finite
// values (+0 when it is zero, ±Inf when it rounds past MaxFloat64).
func (a *exactSum) float() float64 {
	switch {
	case a.nan > 0 || a.pos > 0 && a.neg > 0:
		return math.NaN()
	case a.pos > 0:
		return math.Inf(1)
	case a.neg > 0:
		return math.Inf(-1)
	}
	for a.lo < a.end && a.c[a.lo] == 0 {
		a.lo++
	}
	for a.lo < a.end && a.c[a.end-1] == 0 {
		a.end--
	}
	if a.lo == a.end {
		return 0
	}
	negative := a.normalize(1)
	if negative {
		a.normalize(-1)
	}
	top := a.end + 1
	for top >= a.lo && a.scratch[top] == 0 {
		top--
	}
	if top < a.lo {
		return 0
	}
	// Keep the top 53 bits of the magnitude and round at the bit below.
	width := 32*top + bits.Len64(a.scratch[top])
	shift := max(width-53, 0)
	m := a.bitsAt(shift) & (1<<53 - 1)
	if shift > 0 && a.bitsAt(shift-1)&1 != 0 && (m&1 != 0 || a.nonzeroBelow(shift-1)) {
		m++
	}
	// m·2^shift units of 2^-1074 encode as exponent field shift plus
	// m's implicit bit; a carry out of m moves into the exponent.
	f := uint64(shift)<<52 + m
	if f >= 0x7ff<<52 {
		f = 0x7ff << 52
	}
	if negative {
		f |= 1 << 63
	}
	return math.Float64frombits(f)
}

// normalize writes sign·c as base-2^32 digits into scratch[lo:end+2]
// and reports whether the value is negative (then the digits are
// meaningless and the caller normalises -c instead).
func (a *exactSum) normalize(sign int64) (negative bool) {
	var carry int64
	for k := a.lo; k < a.end; k++ {
		v := sign*a.c[k] + carry
		a.scratch[k] = uint64(v) & chunkMask
		carry = v >> 32
	}
	if carry < 0 {
		return true
	}
	a.scratch[a.end] = uint64(carry) & chunkMask
	a.scratch[a.end+1] = uint64(carry) >> 32
	return false
}

// digit returns normalised digit k (zero outside lo:end+2).
func (a *exactSum) digit(k int) uint64 {
	if k < a.lo || k >= a.end+2 {
		return 0
	}
	return a.scratch[k]
}

// bitsAt returns the normalised magnitude shifted right by pos bits,
// truncated to 64 bits.
func (a *exactSum) bitsAt(pos int) uint64 {
	k, r := pos/32, uint(pos%32)
	return a.digit(k)>>r | a.digit(k+1)<<(32-r) | a.digit(k+2)<<(64-r)
}

// nonzeroBelow reports whether any magnitude bit below pos is set.
func (a *exactSum) nonzeroBelow(pos int) bool {
	k := pos / 32
	if a.digit(k)&(1<<uint(pos%32)-1) != 0 {
		return true
	}
	for j := a.lo; j < k; j++ {
		if a.scratch[j] != 0 {
			return true
		}
	}
	return false
}
