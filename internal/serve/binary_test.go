package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"gaugur/internal/sched/fleet"
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

// binFrame renders one request frame: op, argument, optional trace id.
func binFrame(op byte, arg int64, trace ...uint64) []byte {
	body := binary.LittleEndian.AppendUint64([]byte{op}, uint64(arg))
	for _, id := range trace {
		body = binary.LittleEndian.AppendUint64(body, id)
	}
	var buf bytes.Buffer
	writeFrame(&buf, body)
	return buf.Bytes()
}

// TestBinaryPartialNextFrame: a client may put the start of its next
// request on the wire before reading the reply to the last one. The server
// used to hold that reply back whenever four more bytes were buffered, then
// block reading the rest of a frame whose sender was waiting on the reply.
func TestBinaryPartialNextFrame(t *testing.T) {
	s, _ := newBinaryFixture(t, PipelineConfig{})
	conn, err := net.Dial("tcp", s.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	next := binFrame(binOpAdmit, 4)
	if _, err := conn.Write(append(binFrame(binOpAdmit, 3), next[:5]...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	resp := make([]byte, binMaxFrame)
	for i, rest := range [][]byte{nil, next[5:]} {
		if _, err := conn.Write(rest); err != nil {
			t.Fatal(err)
		}
		frame, err := readFrame(conn, resp)
		if err != nil {
			t.Fatalf("reply %d withheld behind a partial next frame: %v", i, err)
		}
		if frame[0] != BinOK {
			t.Fatalf("reply %d: status %d", i, frame[0])
		}
	}
}

// TestBinaryIdleConnClosed: a binary client that goes silent — before its
// first frame, halfway through one, or after a reply — is hung up on once a
// frame is overdue, instead of holding a goroutine and a binConn entry for
// as long as it likes.
func TestBinaryIdleConnClosed(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{Cluster: testCluster(t, 16, 4, 2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	if s.binTimeout <= 0 {
		t.Fatal("binary connections get no frame timeout")
	}
	s.binTimeout = 50 * time.Millisecond
	if err := s.StartBinary("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.closeBinary(); p.Close() })
	for _, sent := range [][]byte{nil, binFrame(binOpAdmit, 3)[:6], binFrame(binOpAdmit, 3)} {
		conn, err := net.Dial("tcp", s.BinaryAddr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(sent); err != nil {
			t.Fatal(err)
		}
		// The test's own patience, far beyond the server's.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, conn); err != nil {
			t.Fatalf("server kept an idle connection open after % x: %v", sent, err)
		}
		conn.Close()
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.binConn) == 0
	}, 5*time.Second)
}

// FuzzBinaryFrame feeds arbitrary bytes to the connection loop — frame
// decoder plus op dispatch — against a tiny live cluster. Whatever arrives,
// the loop must not panic, must answer every complete frame ahead of the
// first oversized or truncated one exactly once with a well-formed reply,
// and must leave the cluster's books balanced.
func FuzzBinaryFrame(f *testing.F) {
	f.Add(binFrame(binOpAdmit, 3))
	f.Add(binFrame(binOpAdmitTraced, 3, 0xfeed))
	f.Add(append(binFrame(binOpAdmit, 5), binFrame(binOpLeave, 1)...))
	f.Add(binFrame(binOpAdmit, 3)[:9])               // truncated body
	f.Add([]byte{binMaxFrame + 1, 0, 0, 0, 1, 2, 3}) // length over the cap
	f.Add(binFrame(99, 1))                           // nine bytes, unknown op

	pcfg := profiledOnly(f)
	p, err := NewPipeline(pcfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(p.Close)
	s, err := NewServer(ServerConfig{Pipeline: p})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var admits []bool // per complete frame: is it a well-formed admit?
		for in := data; len(in) >= 4; {
			n := uint64(binary.LittleEndian.Uint32(in))
			if n > binMaxFrame || uint64(len(in)-4) < n {
				break
			}
			admits = append(admits, n == 9 && in[4] == binOpAdmit || n == 17 && in[4] == binOpAdmitTraced)
			in = in[4+n:]
		}
		var out bytes.Buffer
		s.serveBinary(bytes.NewReader(data), &out)
		got := 0
		buf := make([]byte, binMaxFrame)
		for ; out.Len() > 0; got++ {
			frame, err := readFrame(&out, buf)
			if err != nil {
				t.Fatalf("reply %d is not a frame: %v", got, err)
			}
			if got >= len(admits) {
				continue // counted, reported below
			}
			placed := admits[got] && len(frame) == 17 && frame[0] == BinOK
			status := len(frame) == 1 && frame[0] <= BinBadRequest && !(admits[got] && frame[0] == BinOK)
			if !placed && !status {
				t.Fatalf("reply %d (admit: %v) is malformed: % x", got, admits[got], frame)
			}
		}
		if got != len(admits) {
			t.Fatalf("%d replies to %d complete frames", got, len(admits))
		}
		if err := fleet.CheckInvariants(pcfg.Cluster); err != nil {
			t.Fatal(err)
		}
	})
}
