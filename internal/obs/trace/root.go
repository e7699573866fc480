package trace

// Root is one trace under construction: the root span's identity and start
// stamp, plus the finished child spans recorded under it so far. It is the
// only way a trace is built. StartRoot costs one or two ID draws and one
// clock read — no lock, no pool traffic — because at production sampling
// rates the bulk of request traces is dropped at completion and should pay
// for nothing more.
//
// The protocol, as the serve pipeline runs it:
//
//	tracer.StartRoot(&op.root, propagatedID, "admission")
//	... do the work, taking raw Tracer.Now stamps ...
//	if tracer.WouldKeep(op.root.TraceID(), dur, forced) {
//		pb := op.root.Child(0, "place-batch", start, end) // under the root
//		op.root.Child(pb, "score", start, commit)          // under place-batch
//		kept = op.root.EndAt(end, attrs...)
//	} else {
//		kept = op.root.EndAt(end) // tail-sampling decision only
//	}
//
// EndAt always runs the real tail-sampling decision, so the sampler's
// histogram and counters see every root; a root kept without children
// (the slow threshold moved between peek and decision) commits as a
// one-span trace.
//
// A Root is single-goroutine state: its owner records every span, so
// work fanned out to other goroutines hands its stamps back to be
// recorded after the join. The child and attribute buffers survive
// EndAt and are reused by the next StartRoot on the same Root, so a Root
// kept in a pooled request (or a reused loop variable) records kept
// traces without allocating; the store copies a kept trace on commit.
type Root struct {
	t       *Tracer
	traceID uint64
	spanID  uint64
	name    string
	start   int64
	keep    bool

	spans []Span // finished children, in record order
	attrs []Attr // backs every recorded span's Attrs
}

// StartRoot opens a trace on r, reusing r's buffers. An id of 0 draws the
// next identifier from the tracer's deterministic sequence; a non-zero id
// adopts a propagated identity. Nil-safe: a nil tracer leaves r inert.
func (t *Tracer) StartRoot(r *Root, id uint64, name string) {
	r.spans, r.attrs = r.spans[:0], r.attrs[:0]
	if t == nil {
		r.t, r.traceID, r.spanID, r.name, r.start, r.keep = nil, 0, 0, "", 0, false
		return
	}
	if id == 0 {
		id = t.nextID()
	}
	r.t, r.traceID, r.spanID, r.name, r.start, r.keep = t, id, t.nextID(), name, t.clock(), false
}

// Active reports whether the root belongs to a live tracer and has not
// ended.
func (r *Root) Active() bool { return r.t != nil }

// TraceID returns the trace identifier, which outlives EndAt (0 for a
// root started on a nil tracer).
func (r *Root) TraceID() uint64 { return r.traceID }

// StartNS returns the root's start timestamp on the tracer's clock.
func (r *Root) StartNS() int64 { return r.start }

// Keep marks the trace force-kept (errors, shed admissions, 429s): tail
// sampling retains it regardless of rate or duration.
func (r *Root) Keep() {
	if r.t != nil {
		r.keep = true
	}
}

// Child records a finished span [startNS, endNS] under the span parent —
// 0 for the root itself — and returns its span id, the parent for its own
// children. The attrs are copied, so the variadic slice never escapes.
// Returns 0 on an inert root.
func (r *Root) Child(parent uint64, name string, startNS, endNS int64, attrs ...Attr) uint64 {
	if r.t == nil {
		return 0
	}
	if parent == 0 {
		parent = r.spanID
	}
	id := r.t.nextID()
	r.spans = append(r.spans, Span{
		SpanID:  id,
		Parent:  parent,
		Name:    name,
		StartNS: startNS,
		EndNS:   endNS,
		Attrs:   r.copyAttrs(attrs),
	})
	return id
}

// copyAttrs appends attrs to the root's arena and returns their subrange
// (nil when empty). An arena that grows leaves earlier subranges on the
// old array, which stays valid: nothing writes it again before commit.
func (r *Root) copyAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	n0 := len(r.attrs)
	r.attrs = append(r.attrs, attrs...)
	return r.attrs[n0:len(r.attrs):len(r.attrs)]
}

// EndAt ends the root at a caller-supplied stamp, runs the tail-sampling
// decision and, when the trace is kept, commits it with the root span
// (carrying attrs) last. Reports whether the trace was retained; the root
// is inert afterwards.
func (r *Root) EndAt(endNS int64, attrs ...Attr) bool {
	t := r.t
	if t == nil {
		return false
	}
	r.t = nil
	kept := t.tailKeep(r.traceID, endNS-r.start, r.keep)
	if kept {
		r.spans = append(r.spans, Span{
			SpanID:  r.spanID,
			Name:    r.name,
			StartNS: r.start,
			EndNS:   endNS,
			Attrs:   r.copyAttrs(attrs),
		})
		t.store.add(Trace{
			ID:      r.traceID,
			Name:    r.name,
			Root:    r.spanID,
			StartNS: r.start,
			EndNS:   endNS,
			Spans:   r.spans,
		})
	}
	r.spans, r.attrs = r.spans[:0], r.attrs[:0]
	return kept
}

// End ends the root at the tracer's current clock reading.
func (r *Root) End(attrs ...Attr) bool {
	if r.t == nil {
		return false
	}
	return r.EndAt(r.t.clock(), attrs...)
}
