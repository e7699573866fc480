package fleet

import (
	"math"
	"slices"

	"gaugur/internal/sim"
)

// Score memoization for the shard probe: an order-invariant multiset hash
// identifying a colocation, and per-state memo rows holding the scorer's
// answers for a state and for the state plus each game.

// defaultCacheCap bounds the scores a shard's memo rows hold between them.
// A week-long churn stream visits unboundedly many distinct states, so the
// memo recycles its oldest row instead of growing memory without limit.
const defaultCacheCap = 1 << 15

// multisetHash folds a game multiset into a 64-bit key by summing each
// id through sim.Mix64. Addition commutes, so the hash is
// order-invariant — hash(occupants ∪ {g}) is hash(occupants) +
// Mix64(g), computable without materializing the candidate slice — and
// the mixer spreads ids across the full word so sums of small ids do not
// collide. The empty multiset hashes to zero.
func multisetHash(games []int) uint64 {
	var h uint64
	for _, g := range games {
		h += sim.Mix64(uint64(g))
	}
	return h
}

// absent fills a memo slot that holds no score. A scorer that answers NaN
// is never memoized, only asked again.
var absent = math.NaN()

// row is one state's memo under one model generation. key is the state's
// multiset hash plus the generation tag, base the state's own score, and
// cand[i] the score of the state plus the game in the shard's slot i
// (memo.slot); each is absent until known. An evicted row is dead: a group
// may still point at it, but only a live row under the group's key is read
// or written. used marks a row a probe read since eviction last passed it.
type row struct {
	key        uint64
	live, used bool
	base       float64
	cand       []float64
}

// candAt reads the candidate score for slot i.
func (r *row) candAt(i int) float64 {
	if i < len(r.cand) {
		return r.cand[i]
	}
	return absent
}

// memo is a shard's score memo: rows by key, evicted so that the live rows
// hold at most limit scores between them (a base plus each cand slot).
// Eviction is second-chance FIFO: it takes the oldest row no probe has read
// since eviction last passed it, so the rows of states servers sit in
// survive the stream of states that come and go. Eviction never changes an
// answer — the scorer is pure — it only caps memory.
type memo struct {
	limit, held int
	rows        map[uint64]*row
	fifo        []*row // live rows, oldest at head
	head        int
	spare       *row        // the last row evicted, for newRow to recycle
	slots       map[int]int // game id -> its cand slot, in order of first probe
}

// newMemo returns a memo bounded to limit scores (the default cap when
// limit <= 0).
func newMemo(limit int) *memo {
	if limit <= 0 {
		limit = defaultCacheCap
	}
	return &memo{limit: limit, rows: map[uint64]*row{}, slots: map[int]int{}}
}

// slot returns game's cand slot, assigning the next one on first sight.
func (m *memo) slot(game int) int {
	i, ok := m.slots[game]
	if !ok {
		i = len(m.slots)
		m.slots[game] = i
	}
	return i
}

// newRow files an empty live row under key k, recycling the last evicted
// row's cand array.
func (m *memo) newRow(k uint64) *row {
	m.fit(1, nil)
	r := m.spare
	if r == nil {
		r = &row{}
	}
	m.spare = nil
	r.key, r.live, r.used, r.base, r.cand = k, true, false, absent, r.cand[:0]
	m.rows[k] = r
	m.fifo = append(m.fifo, r)
	m.held++
	return r
}

// fit evicts rows, never keep, until n more scores fit; false when they
// cannot. A row read since eviction last passed it goes back to the tail
// instead, unread.
func (m *memo) fit(n int, keep *row) bool {
	for m.held+n > m.limit {
		if live := len(m.fifo) - m.head; live == 0 || live == 1 && m.fifo[m.head] == keep {
			return false
		}
		r := m.fifo[m.head]
		m.fifo[m.head] = nil
		if m.head++; 2*m.head >= len(m.fifo) {
			kept := copy(m.fifo, m.fifo[m.head:])
			clear(m.fifo[kept:])
			m.fifo, m.head = m.fifo[:kept], 0
		}
		if r == keep || r.used {
			r.used = false
			m.fifo = append(m.fifo, r)
			continue
		}
		delete(m.rows, r.key)
		m.held -= 1 + len(r.cand)
		r.live = false
		m.spare = r
	}
	return true
}

// putCand files v as r's candidate score for slot i, first widening r to a
// slot for every game the shard knows when that fits the budget; a score
// that does not fit is not kept.
func (m *memo) putCand(r *row, i int, v float64) {
	if n := len(r.cand); i >= n {
		w := len(m.slots)
		if !m.fit(w-n, r) {
			return
		}
		m.held += w - n
		r.cand = slices.Grow(r.cand, w-n)[:w]
		for j := n; j < w; j++ {
			r.cand[j] = absent
		}
	}
	r.cand[i] = v
}

// recall finds the score of the state keyed k wherever else the memo may
// hold it: as its own row's base (when the state is a candidate, not the
// asking group's own state), or as the candidate slot of a parent — the
// state less one of its games h, for h. games are the state's members, or
// the asking group's when the state is its candidate: the parent without
// the added game is that group itself, whose row was read already.
func (m *memo) recall(k uint64, games []int, cand bool) (float64, bool) {
	if cand {
		if r := m.rows[k]; r != nil && !math.IsNaN(r.base) {
			return r.base, true
		}
	}
	for j, h := range games {
		if j > 0 && games[j-1] == h {
			continue
		}
		p := m.rows[k-sim.Mix64(uint64(h))]
		if i, ok := m.slots[h]; ok && p != nil && !math.IsNaN(p.candAt(i)) {
			return p.cand[i], true
		}
	}
	return 0, false
}
