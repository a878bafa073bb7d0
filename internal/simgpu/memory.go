package simgpu

import (
	"errors"
	"fmt"
	"sort"
)

// ErrOOM is returned when an allocation does not fit in device (or MIG
// instance) memory. Under MPS there is no memory isolation, so one
// process's allocations can OOM another — the paper's stated MPS
// drawback.
var ErrOOM = errors.New("simgpu: out of device memory")

// MemPool is a device- or instance-level memory pool. Allocation is
// capacity-accounted only (no fragmentation model).
type MemPool struct {
	name string
	cap  int64
	used int64
	segs map[string]*Segment
	next int
}

// NewMemPool creates a pool with the given capacity in bytes.
func NewMemPool(name string, capacity int64) *MemPool {
	return &MemPool{name: name, cap: capacity, segs: make(map[string]*Segment)}
}

// Name returns the pool name.
func (m *MemPool) Name() string { return m.name }

// Cap returns total capacity in bytes.
func (m *MemPool) Cap() int64 { return m.cap }

// Used returns allocated bytes.
func (m *MemPool) Used() int64 { return m.used }

// Free returns unallocated bytes.
func (m *MemPool) Free() int64 { return m.cap - m.used }

// Segment is a named allocation. Shared segments carry a reference
// count and may be pinned to survive with zero references (the
// GPU-resident weight cache of the paper's future-work section).
type Segment struct {
	pool   *MemPool
	name   string
	size   int64
	shared bool
	pinned bool
	refs   int
	freed  bool
}

// Alloc reserves size bytes. Segment names must be unique within the
// pool; an empty name gets a generated one.
func (m *MemPool) Alloc(name string, size int64) (*Segment, error) {
	return m.alloc(name, size, false)
}

// AllocShared reserves size bytes as a shared segment with an initial
// reference count of one.
func (m *MemPool) AllocShared(name string, size int64) (*Segment, error) {
	return m.alloc(name, size, true)
}

func (m *MemPool) alloc(name string, size int64, shared bool) (*Segment, error) {
	if size < 0 {
		return nil, fmt.Errorf("simgpu: negative allocation %d", size)
	}
	if name == "" {
		m.next++
		name = fmt.Sprintf("seg-%d", m.next)
	}
	if _, dup := m.segs[name]; dup {
		return nil, fmt.Errorf("simgpu: duplicate segment %q in pool %s", name, m.name)
	}
	if m.used+size > m.cap {
		return nil, fmt.Errorf("%w: pool %s: want %d, free %d", ErrOOM, m.name, size, m.Free())
	}
	seg := &Segment{pool: m, name: name, size: size, shared: shared}
	if shared {
		seg.refs = 1
	}
	m.used += size
	m.segs[name] = seg
	return seg, nil
}

// Lookup finds a segment by name (nil if absent).
func (m *MemPool) Lookup(name string) *Segment {
	return m.segs[name]
}

// Segments returns the live segment names in sorted order.
func (m *MemPool) Segments() []string {
	names := make([]string, 0, len(m.segs))
	for n := range m.segs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Name returns the segment name.
func (s *Segment) Name() string { return s.name }

// Size returns the segment size in bytes.
func (s *Segment) Size() int64 { return s.size }

// Refs returns the reference count (0 for non-shared segments).
func (s *Segment) Refs() int { return s.refs }

// Pin keeps a shared segment resident even at zero references.
func (s *Segment) Pin() { s.pinned = true }

// Unpin removes the pin; if references are zero the segment is freed.
func (s *Segment) Unpin() {
	s.pinned = false
	if s.shared && s.refs == 0 {
		s.reclaim()
	}
}

// Retain adds a reference to a shared segment.
func (s *Segment) Retain() {
	if !s.shared {
		panic("simgpu: Retain on non-shared segment")
	}
	if s.freed {
		panic("simgpu: Retain on freed segment")
	}
	s.refs++
}

// Release drops a reference (or frees a non-shared segment outright).
// A shared segment is reclaimed when references reach zero and it is
// not pinned.
func (s *Segment) Release() {
	if s.freed {
		return
	}
	if !s.shared {
		s.reclaim()
		return
	}
	if s.refs > 0 {
		s.refs--
	}
	if s.refs == 0 && !s.pinned {
		s.reclaim()
	}
}

func (s *Segment) reclaim() {
	if s.freed {
		return
	}
	s.freed = true
	s.pool.used -= s.size
	delete(s.pool.segs, s.name)
}

// Freed reports whether the segment's memory has been reclaimed.
func (s *Segment) Freed() bool { return s.freed }
