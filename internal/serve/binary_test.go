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
	frame := binary.LittleEndian.AppendUint64(append(frameStart(nil), op), uint64(arg))
	for _, id := range trace {
		frame = binary.LittleEndian.AppendUint64(frame, id)
	}
	return frameEnd(frame)
}

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes++
	return c.Conn.Write(b)
}

// TestBinaryClientOneWritePerRequest: the client used to write each
// request's length prefix and payload separately — two syscalls and, with
// TCP_NODELAY on by default, two segments, the first waking the server's
// reader on a bare header. Every request is now one Write.
func TestBinaryClientOneWritePerRequest(t *testing.T) {
	s, _ := newBinaryFixture(t, PipelineConfig{})
	conn, err := net.Dial("tcp", s.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	cl := newBinaryClient(cc)
	defer cl.Close()
	sid, _, err := cl.Admit(3)
	if err != nil {
		t.Fatal(err)
	}
	if cc.writes != 1 {
		t.Fatalf("Admit made %d writes, want 1", cc.writes)
	}
	if _, _, err := cl.AdmitTraced(4, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if err := cl.Leave(sid); err != nil {
		t.Fatal(err)
	}
	if cc.writes != 3 {
		t.Fatalf("Admit, AdmitTraced and Leave made %d writes, want 3", cc.writes)
	}
}

// TestServeBinaryWarmAllocs: once warm, the connection loop answering an
// admit frame and a leave frame allocates nothing of its own — a round
// over the wire costs no more allocations than the same admit and leave
// submitted to the pipeline directly. The frame header used to escape
// through the reader and the writer, two allocations per frame.
func TestServeBinaryWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector, so pooled paths allocate")
	}
	p, err := NewPipeline(PipelineConfig{Cluster: testCluster(t, 16, 4, 2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := NewServer(ServerConfig{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	// An in-memory connection: a pipe each way, with no read deadline to arm.
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveBinary(reqR, respW)
	}()
	defer func() { reqW.Close(); respR.Close(); <-done }()

	admit, leave := binFrame(binOpAdmit, 3), binFrame(binOpLeave, 0)
	buf := make([]byte, binMaxFrame)
	wire := func() {
		if _, err := reqW.Write(admit); err != nil {
			t.Fatal(err)
		}
		frame, err := readFrame(respR, buf)
		if err != nil || len(frame) != 17 || frame[0] != BinOK {
			t.Fatalf("admit reply % x, %v", frame, err)
		}
		copy(leave[5:], frame[1:9]) // the leave names the admitted session
		if _, err := reqW.Write(leave); err != nil {
			t.Fatal(err)
		}
		if frame, err = readFrame(respR, buf); err != nil || len(frame) != 1 || frame[0] != BinOK {
			t.Fatalf("leave reply % x, %v", frame, err)
		}
	}
	direct := func() {
		pl, err := p.Admit(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Leave(pl.Session); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		wire()
		direct()
	}
	own := testing.AllocsPerRun(200, direct)
	n := testing.AllocsPerRun(200, wire)
	if n > own {
		t.Fatalf("a warm admit/leave frame pair allocates %v times, the pipeline alone %v", n, own)
	}
	t.Logf("allocations per warm admit/leave pair: %v over the wire, %v direct", n, own)
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
