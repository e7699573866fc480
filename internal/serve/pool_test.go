package serve

import (
	"sync"
	"testing"
)

// TestBinaryPoolConcurrent: many workers sharing a small pool — every
// request lands on some pooled connection, accounting conserves the
// request count, and a healthy run never reconnects.
func TestBinaryPoolConcurrent(t *testing.T) {
	s, p := newBinaryFixture(t, PipelineConfig{})
	pool, err := NewBinaryPool(s.BinaryAddr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const workers, each = 8, 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sids []int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sid, lat, err := pool.Admit(w%5, 0)
				if err != nil {
					t.Errorf("admit: %v", err)
					return
				}
				if lat <= 0 {
					t.Errorf("admit latency not measured: %v", lat)
					return
				}
				mu.Lock()
				sids = append(sids, sid)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, sid := range sids {
		if _, err := pool.Leave(sid); err != nil {
			t.Fatalf("leave %d: %v", sid, err)
		}
	}

	if rc := pool.Reconnects(); rc != 0 {
		t.Fatalf("healthy run reconnected %d times", rc)
	}
	var reqs, errs int64
	for _, cs := range pool.ConnStats() {
		reqs += cs.Requests
		errs += cs.Errors
		if cs.Requests > 0 && cs.AvgWire <= 0 {
			t.Fatalf("conn %d: %d requests but no wire latency", cs.ID, cs.Requests)
		}
	}
	if want := int64(workers*each) * 2; reqs != want {
		t.Fatalf("pool accounting: %d requests across conns, want %d", reqs, want)
	}
	if errs != 0 {
		t.Fatalf("healthy run recorded %d connection errors", errs)
	}
	if st := p.Stats(); st.Active != 0 {
		t.Fatalf("sessions left behind: %d", st.Active)
	}
}

// TestBinaryPoolReconnect: severing a pooled connection at the TCP level
// (a server-side drop) must be transparent — the next request on that
// slot redials and retries, the caller sees success, and the redial is
// counted.
func TestBinaryPoolReconnect(t *testing.T) {
	s, _ := newBinaryFixture(t, PipelineConfig{})
	pool, err := NewBinaryPool(s.BinaryAddr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	if _, _, err := pool.Admit(1, 0); err != nil {
		t.Fatalf("warm-up admit: %v", err)
	}

	// Sever every pooled connection out from under the pool.
	for i := 0; i < pool.Size(); i++ {
		pc := <-pool.free
		pc.c.conn.Close()
		pool.free <- pc
	}

	// Each slot's next request hits the dead stream, retires it, redials,
	// and retries — callers never see the failure.
	for i := 0; i < 4; i++ {
		if _, _, err := pool.Admit(2, 0); err != nil {
			t.Fatalf("admit %d after sever: %v", i, err)
		}
	}
	if got := pool.Reconnects(); got != int64(pool.Size()) {
		t.Fatalf("reconnects = %d, want %d (one per severed conn)", got, pool.Size())
	}
	var errs int64
	for _, cs := range pool.ConnStats() {
		errs += cs.Errors
	}
	if errs != int64(pool.Size()) {
		t.Fatalf("per-conn errors = %d, want %d failed first attempts", errs, pool.Size())
	}
}
