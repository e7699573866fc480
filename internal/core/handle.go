package core

import "sync/atomic"

// ModelHandle is the atomically swappable serving slot for a Predictor.
// Serving paths (FallbackPredictor's model stage, scorers, auditors) load
// the current model per query with one atomic pointer read; the lifecycle
// manager promotes a new model by swapping the pointer — in-flight queries
// finish on whichever model they loaded, and no decision is ever dropped.
//
// The generation counter invalidates derived caches (the fleet shards'
// score memos tag their keys with it). Swap stores the new pointer BEFORE
// incrementing the generation: a racing reader can then at worst cache a
// NEW model's score under the OLD generation tag — an entry that dies with
// the swap — never an old score under the new tag, which would survive it.
type ModelHandle struct {
	ptr atomic.Pointer[Predictor]
	gen atomic.Uint64
}

// NewModelHandle wraps p (which may be nil) in a fresh handle at
// generation 0.
func NewModelHandle(p *Predictor) *ModelHandle {
	h := &ModelHandle{}
	if p != nil {
		h.ptr.Store(p)
	}
	return h
}

// Load returns the current model (nil on a nil handle or before any model
// is installed).
func (h *ModelHandle) Load() *Predictor {
	if h == nil {
		return nil
	}
	return h.ptr.Load()
}

// Generation returns the swap counter: it increments exactly once per
// Swap, so cache keys tagged with it can never outlive the model that
// produced them. Zero on a nil handle.
func (h *ModelHandle) Generation() uint64 {
	if h == nil {
		return 0
	}
	return h.gen.Load()
}

// Swap atomically installs p as the serving model and returns the previous
// one. Safe under concurrent Load/Generation readers.
func (h *ModelHandle) Swap(p *Predictor) (prev *Predictor) {
	prev = h.ptr.Swap(p)
	h.gen.Add(1)
	return prev
}
