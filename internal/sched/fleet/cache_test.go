package fleet

import (
	"math"
	"testing"
)

// memoGet is a probe's use of the memo reduced to one slot: the row keyed
// k, filed anew when there is none and marked read, and its candidate score
// for game, computed and filed on a miss.
func memoGet(m *memo, k uint64, game int, miss func() float64) float64 {
	r := m.rows[k]
	if r == nil {
		r = m.newRow(k)
	}
	r.used = true
	i := m.slot(game)
	if v := r.candAt(i); !math.IsNaN(v) {
		return v
	}
	v := miss()
	m.putCand(r, i, v)
	return v
}

// checkMemo fails the test when the memo's bookkeeping is off: the live
// rows are the FIFO's, each indexed once under its key, and they hold the
// counted scores, within the bound.
func checkMemo(t *testing.T, m *memo) {
	t.Helper()
	if err := m.check(); err != nil {
		t.Fatal(err)
	}
}

// Bounded-memo satellite: the rows must not hold more scores than the cap
// (one base plus one slot per game each), and eviction must not change
// results.
func TestMemoCapHolds(t *testing.T) {
	misses := 0
	m := newMemo(6) // one game: a row holds 2 scores, so 3 rows fit
	get := func(k uint64) float64 {
		return memoGet(m, k, 7, func() float64 { misses++; return float64(k) })
	}
	for k := uint64(1); k <= 10; k++ {
		get(k)
		checkMemo(t, m)
	}
	if len(m.rows) != 3 || m.held != 6 {
		t.Fatalf("memo holds %d rows and %d scores, cap is 6 scores", len(m.rows), m.held)
	}
	if misses != 10 {
		t.Fatalf("misses %d, want 10 distinct inserts", misses)
	}
	// The most recent rows are resident; the oldest were evicted and miss
	// again (recomputing the same value).
	get(10)
	if misses != 10 {
		t.Error("recent key should hit")
	}
	if v := get(1); v != 1 {
		t.Errorf("recomputed value %v, want 1", v)
	}
	if misses != 11 {
		t.Error("evicted key should miss")
	}
	checkMemo(t, m)
}

// A memo at capacity must keep serving hits for every resident row, and
// evict by second chance: a sweep that finds every row read since the last
// one clears them all and takes the oldest, a row read since is passed
// over for the oldest one that was not, and a new game widens a row only
// by evicting another, never past the cap.
func TestMemoFullStillServesHits(t *testing.T) {
	const rows = 4
	m := newMemo(rows * 3) // two games: a row holds 3 scores
	misses := 0
	get := func(k uint64, game int) float64 {
		return memoGet(m, k, game, func() float64 { misses++; return float64(k*3) + float64(game) })
	}
	for k := uint64(1); k <= rows; k++ {
		get(k, 1)
		get(k, 2)
	}
	if len(m.rows) != rows || misses != 2*rows {
		t.Fatalf("warmup: %d rows, %d misses, want %d and %d", len(m.rows), misses, rows, 2*rows)
	}
	checkMemo(t, m)
	// Every resident score hits, repeatedly, with the memo full.
	for round := 0; round < 3; round++ {
		for k := uint64(1); k <= rows; k++ {
			for game := 1; game <= 2; game++ {
				if v := get(k, game); v != float64(k*3)+float64(game) {
					t.Fatalf("full-memo hit for %d+%d returned %v", k, game, v)
				}
			}
		}
	}
	if misses != 2*rows {
		t.Fatalf("full-memo hits recomputed: %d misses, want %d", misses, 2*rows)
	}
	// Every row was read: one row past the cap evicts the oldest (1) and
	// the others still hit.
	get(100, 1)
	if v := get(2, 2); v != 8 || misses != 2*rows+1 || m.rows[1] != nil {
		t.Fatalf("post-evict: v=%v misses=%d, row 1 resident %v", v, misses, m.rows[1] != nil)
	}
	checkMemo(t, m)
	// Row 2 was read since that sweep and 3 was not: the next row takes 3.
	get(101, 1)
	if m.rows[2] == nil || m.rows[3] != nil {
		t.Fatalf("second chance broken: row 2 resident %v, row 3 resident %v", m.rows[2] != nil, m.rows[3] != nil)
	}
	checkMemo(t, m)
	// A third game widens row 101 to four scores: the oldest unread row (4)
	// goes to make room, and the row itself is kept.
	get(101, 3)
	if r := m.rows[101]; r == nil || len(r.cand) != 3 || m.rows[4] != nil {
		t.Fatalf("widening row 101: %+v, row 4 resident %v", m.rows[101], m.rows[4] != nil)
	}
	checkMemo(t, m)
}

// Eviction recycles the evicted row in place: neither the FIFO nor the
// number of rows grows with churn, however far past the cap the stream
// runs, and an evicted row is dead to any group still pointing at it.
func TestMemoEvictionConstantSpace(t *testing.T) {
	m := newMemo(6)
	first := m.newRow(0)
	for k := uint64(1); k < 1000; k++ {
		memoGet(m, k, int(k%2), func() float64 { return float64(k) })
	}
	checkMemo(t, m)
	if len(m.rows) > 3 || len(m.fifo)-m.head > 3 || cap(m.fifo) > 8 {
		t.Errorf("memo grew with churn: %d rows, fifo len %d cap %d", len(m.rows), len(m.fifo), cap(m.fifo))
	}
	if first.live && first.key == 0 {
		t.Error("an evicted row still reads as live under its old key")
	}
}
