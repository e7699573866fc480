package fleet

// idleHeap is an indexed min-heap over a shard's non-full servers, ordered
// by (occupancy, local index). It answers two questions in O(1): "does
// this shard have any capacity at all?" (empty check — the fast reject on
// the scoring path) and "which server is emptiest?" (the least-loaded
// placement rule). Updates are O(log n) via position tracking, so occupancy
// changes never rebuild the heap.
//
// The (occupancy, index) order makes top() deterministic: among equally
// empty servers the lowest local index wins, matching the scan order of
// a flat least-loaded scan.
type idleHeap struct {
	items []idleItem
	pos   []int // local server index -> heap slot, -1 when absent (full server)
}

type idleItem struct {
	occ int
	idx int // local server index
}

// newIdleHeap builds a heap over n servers, all initially empty.
func newIdleHeap(n int) *idleHeap {
	h := &idleHeap{items: make([]idleItem, n), pos: make([]int, n)}
	for i := 0; i < n; i++ {
		h.items[i] = idleItem{occ: 0, idx: i}
		h.pos[i] = i
	}
	return h
}

func (h *idleHeap) less(a, b idleItem) bool {
	if a.occ != b.occ {
		return a.occ < b.occ
	}
	return a.idx < b.idx
}

func (h *idleHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].idx] = i
	h.pos[h.items[j].idx] = j
}

func (h *idleHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *idleHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(h.items[l], h.items[small]) {
			small = l
		}
		if r < n && h.less(h.items[r], h.items[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// empty reports whether the shard has no placeable server.
func (h *idleHeap) empty() bool { return len(h.items) == 0 }

// top returns the local index of the emptiest server (lowest index on
// ties). Call only when !empty().
func (h *idleHeap) top() int { return h.items[0].idx }

// update sets server idx's occupancy to occ, inserting or removing it as
// it crosses the capacity cap max.
func (h *idleHeap) update(idx, occ, max int) {
	p := h.pos[idx]
	if occ >= max {
		if p >= 0 {
			h.removeAt(p)
		}
		return
	}
	if p < 0 {
		h.pos[idx] = len(h.items)
		h.items = append(h.items, idleItem{occ: occ, idx: idx})
		h.up(len(h.items) - 1)
		return
	}
	old := h.items[p].occ
	h.items[p].occ = occ
	if occ < old {
		h.up(p)
	} else if occ > old {
		h.down(p)
	}
}

func (h *idleHeap) removeAt(p int) {
	last := len(h.items) - 1
	h.pos[h.items[p].idx] = -1
	if p != last {
		h.items[p] = h.items[last]
		h.pos[h.items[p].idx] = p
	}
	h.items = h.items[:last]
	if p < len(h.items) {
		h.up(p)
		h.down(p)
	}
}
