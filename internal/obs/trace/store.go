package trace

import "sync"

// Span is one completed, named, timed operation within a trace.
type Span struct {
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent,omitempty"` // 0 = root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// DurationNS returns the span's length in nanoseconds.
func (s Span) DurationNS() int64 { return s.EndNS - s.StartNS }

// Trace is one completed span tree. Spans appear in the order the owning
// goroutine recorded them, the root span last; the root is identified by
// Root.
type Trace struct {
	ID      uint64 `json:"id"`
	Name    string `json:"name"`
	Root    uint64 `json:"root"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Spans   []Span `json:"spans"`
}

// DurationNS returns the whole trace's length in nanoseconds.
func (t Trace) DurationNS() int64 { return t.EndNS - t.StartNS }

// Store is a bounded ring buffer of completed traces: the newest Capacity
// traces are retained, older ones are evicted FIFO. Safe for concurrent
// use; all methods are nil-safe.
type Store struct {
	mu       sync.RWMutex
	capacity int
	buf      []Trace // ring; valid entries are the oldest `size` before head
	// arenas back the attribute slices of each ring slot's spans, reused
	// across ring wraps just like the span buffers.
	arenas [][]Attr
	head   int // next write position
	size   int
	total  int64 // traces ever committed
}

func newStore(capacity int) *Store {
	return &Store{
		capacity: capacity,
		buf:      make([]Trace, capacity),
		arenas:   make([][]Attr, capacity),
	}
}

// add commits one trace, evicting the oldest when full. Spans and their
// attribute slices are deep-copied into the slot's own buffers (reused
// across ring wraps) because the committing Root reuses both its span
// buffer and its attr arena for its next trace; readers in turn detach
// from the slot before returning (see Recent and Get).
func (s *Store) add(tr Trace) {
	s.mu.Lock()
	slot := &s.buf[s.head]
	spans := slot.Spans[:0]
	arena := s.arenas[s.head][:0]
	*slot = tr
	slot.Spans = append(spans, tr.Spans...)
	total := 0
	for i := range slot.Spans {
		total += len(slot.Spans[i].Attrs)
	}
	if cap(arena) < total {
		arena = make([]Attr, 0, total)
	}
	// arena has capacity for every attr, so the subslices below stay
	// valid — append never reallocates mid-loop.
	for i := range slot.Spans {
		if len(slot.Spans[i].Attrs) == 0 {
			continue
		}
		n0 := len(arena)
		arena = append(arena, slot.Spans[i].Attrs...)
		slot.Spans[i].Attrs = arena[n0:len(arena):len(arena)]
	}
	s.arenas[s.head] = arena
	s.head = (s.head + 1) % s.capacity
	if s.size < s.capacity {
		s.size++
	}
	s.total++
	s.mu.Unlock()
}

// Len returns the number of retained traces (0 on nil).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// Total returns the number of traces ever committed, evicted included.
// Traces dropped by tail sampling never commit and are not counted here;
// see Tracer.TailStats for the sampler's ledger.
func (s *Store) Total() int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.total
}

// Evicted returns how many committed traces have been evicted by the ring.
func (s *Store) Evicted() int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.total - int64(s.size)
}

// Capacity returns the ring size (0 on nil).
func (s *Store) Capacity() int {
	if s == nil {
		return 0
	}
	return s.capacity
}

// Recent returns up to n retained traces, newest first (all when n <= 0).
// The returned slice is a copy; callers may hold it freely.
func (s *Store) Recent(n int) []Trace {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n <= 0 || n > s.size {
		n = s.size
	}
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		// head-1 is the newest entry, walking backwards through the ring.
		idx := (s.head - 1 - i + s.capacity) % s.capacity
		out = append(out, detach(s.buf[idx]))
	}
	return out
}

// detach copies a ring slot's spans and attrs into fresh slices so the
// returned trace stays valid after the slot (and its arena) is
// overwritten on a ring wrap.
func detach(tr Trace) Trace {
	spans := append([]Span(nil), tr.Spans...)
	total := 0
	for i := range spans {
		total += len(spans[i].Attrs)
	}
	if total > 0 {
		buf := make([]Attr, 0, total)
		for i := range spans {
			if len(spans[i].Attrs) == 0 {
				continue
			}
			n0 := len(buf)
			buf = append(buf, spans[i].Attrs...)
			spans[i].Attrs = buf[n0:len(buf):len(buf)]
		}
	}
	tr.Spans = spans
	return tr
}

// Get returns the retained trace with the given ID.
func (s *Store) Get(id uint64) (Trace, bool) {
	if s == nil {
		return Trace{}, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := 0; i < s.size; i++ {
		idx := (s.head - 1 - i + s.capacity) % s.capacity
		if s.buf[idx].ID == id {
			return detach(s.buf[idx]), true
		}
	}
	return Trace{}, false
}
