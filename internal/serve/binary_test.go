package serve

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
)

func newBinaryFixture(t *testing.T, pcfg PipelineConfig) (*Server, *Pipeline) {
	t.Helper()
	if pcfg.Cluster == nil {
		pcfg.Cluster = testCluster(t, 16, 4, 2, nil)
	}
	p, err := NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartBinary("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.closeBinary(); p.Close() })
	return s, p
}

func TestBinaryRoundTrip(t *testing.T) {
	s, p := newBinaryFixture(t, PipelineConfig{})
	cl, err := DialBinary(s.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sid, srv, err := cl.Admit(3)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if srv < 0 || srv >= 16 {
		t.Fatalf("admitted to server %d", srv)
	}
	if st := p.Stats(); st.Placed != 1 {
		t.Fatalf("stats after binary admit: %+v", st)
	}
	if err := cl.Leave(sid); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if err := cl.Leave(sid); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("double leave: %v", err)
	}
}

// TestBinaryBadFrames: garbage must produce an in-band error status (bad
// op) or a dropped connection (oversized frame) — never a hang or a
// giant allocation.
func TestBinaryBadFrames(t *testing.T) {
	s, _ := newBinaryFixture(t, PipelineConfig{})

	cl, err := DialBinary(s.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	frame, err := cl.roundTrip(99, 1) // unknown op
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != BinBadRequest {
		t.Fatalf("unknown op: status %d, want %d", frame[0], BinBadRequest)
	}

	// A frame claiming to be huge: the server must hang up, not allocate.
	conn, err := net.Dial("tcp", s.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("server answered a gigabyte frame instead of closing")
	}
}

// TestBinaryDrainingStatus: after drain begins, binary clients get the
// draining status in-band.
func TestBinaryDraining(t *testing.T) {
	s, p := newBinaryFixture(t, PipelineConfig{})
	cl, err := DialBinary(s.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p.closed.Store(true)
	if _, _, err := cl.Admit(1); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit while draining: %v", err)
	}
}

// TestBinaryUnknownGameRefused: the binary wire reaches the same scorer, so
// it gets the same refusal — the bad-request status, traced admits included,
// on a connection that stays usable.
func TestBinaryUnknownGameRefused(t *testing.T) {
	s, p := newBinaryFixture(t, profiledOnly(t))
	cl, err := DialBinary(s.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, game := range []int64{123456, -1} {
		for _, trace := range [][]uint64{nil, {0xfeed}} {
			op := byte(binOpAdmit)
			if trace != nil {
				op = binOpAdmitTraced
			}
			frame, err := cl.roundTrip(op, game, trace...)
			if err != nil {
				t.Fatal(err)
			}
			if frame[0] != BinBadRequest {
				t.Errorf("admit of game %d (op %d): status %d, want %d", game, op, frame[0], BinBadRequest)
			}
		}
	}
	if st := p.Stats(); st.Placed != 0 {
		t.Fatalf("an unknown game was placed: %+v", st)
	}
	if _, _, err := cl.Admit(9); err != nil {
		t.Fatalf("profiled game after the refusals: %v", err)
	}
}
