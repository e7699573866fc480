package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"gaugur/internal/sched/fleet"
)

// The optional binary admission protocol: length-prefixed frames over a
// plain TCP connection, for clients that can't afford JSON on the hot
// path. Every frame is a little-endian uint32 payload length followed by
// the payload.
//
//	request:  op byte (1 = admit, 2 = leave, 3 = traced admit) + int64 LE
//	          argument (game id for admit, session id for leave); a traced
//	          admit appends a uint64 LE trace identifier the server roots
//	          the admission's span tree at (the binary counterpart of the
//	          X-Gaugur-Trace-Id header)
//	response: status byte + for an admitted session, session int64 LE
//	          + server int64 LE
//
// Requests on one connection are answered in order; clients that want
// pipelining open more connections.
const (
	binOpAdmit       = 1
	binOpLeave       = 2
	binOpAdmitTraced = 3

	// BinOK through BinBadRequest are the response status codes, aligned
	// with the HTTP mapping (429/503/409/404/400).
	BinOK          = 0
	BinQueueFull   = 1
	BinDraining    = 2
	BinNoCapacity  = 3
	BinUnknownSess = 4
	BinBadRequest  = 5

	// binMaxFrame bounds a frame so a garbage length prefix can't make
	// the server allocate gigabytes.
	binMaxFrame = 64
)

// appendAdmitResp renders an admit outcome: status byte plus, on success,
// the session and server ids.
func appendAdmitResp(resp []byte, pl fleet.Placement, err error) []byte {
	resp = append(resp, binStatus(err))
	if err == nil {
		resp = binary.LittleEndian.AppendUint64(resp, uint64(pl.Session))
		resp = binary.LittleEndian.AppendUint64(resp, uint64(pl.Server))
	}
	return resp
}

func binStatus(err error) byte {
	switch {
	case err == nil:
		return BinOK
	case errors.Is(err, ErrQueueFull):
		return BinQueueFull
	case errors.Is(err, ErrDraining):
		return BinDraining
	case errors.Is(err, ErrNoCapacity):
		return BinNoCapacity
	case errors.Is(err, ErrUnknownSession):
		return BinUnknownSess
	default:
		return BinBadRequest
	}
}

// frameStart begins a frame in buf's backing array: four bytes for the
// length prefix, which frameEnd fills in once the payload is appended, so
// the whole frame goes out in one Write.
func frameStart(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// frameEnd stamps the payload length into the prefix frameStart reserved.
func frameEnd(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// readFrame reads one frame's payload into buf, which must hold binMaxFrame
// bytes. The length prefix is read into buf too, before the payload
// overwrites it: a header array of its own would escape through r.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > binMaxFrame {
		return nil, fmt.Errorf("serve: binary frame of %d bytes exceeds the %d-byte cap", n, binMaxFrame)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// StartBinary listens on addr and serves the binary admission protocol in
// background goroutines (one per connection) until Shutdown.
func (s *Server) StartBinary(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: binary listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.binLn = ln
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.binConn[conn] = struct{}{}
			s.mu.Unlock()
			s.binWG.Add(1)
			go s.serveBinaryConn(conn)
		}
	}()
	return nil
}

// BinaryAddr returns the binary listener's bound address ("" when not
// started).
func (s *Server) BinaryAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.binLn == nil {
		return ""
	}
	return s.binLn.Addr().String()
}

// closeBinary stops accepting, waits for per-connection loops to wind
// down (draining responses flow until clients hang up), then forces
// stragglers closed.
func (s *Server) closeBinary() {
	s.mu.Lock()
	ln := s.binLn
	for conn := range s.binConn {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.binWG.Wait()
}

func (s *Server) serveBinaryConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.binConn, conn)
		s.mu.Unlock()
		s.binWG.Done()
	}()
	s.serveBinary(conn, conn)
}

// serveBinary answers the frames read from r on w, in order, until r ends
// or yields a frame over binMaxFrame. Every complete frame before that
// gets exactly one reply, and replies already written are flushed on the
// way out. A connection gets binTimeout to deliver each frame it has not
// already sent, so a silent or half-sent client ends the loop instead of
// holding it.
func (s *Server) serveBinary(r io.Reader, w io.Writer) {
	conn, _ := r.(interface{ SetReadDeadline(time.Time) error })
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	req := make([]byte, binMaxFrame)
	resp := make([]byte, 0, binMaxFrame)
	for {
		if conn != nil && !frameBuffered(br) {
			if err := conn.SetReadDeadline(time.Now().Add(s.binTimeout)); err != nil {
				return // the connection is closed: no frame can arrive
			}
		}
		frame, err := readFrame(br, req)
		if err != nil {
			return
		}
		resp = frameStart(resp)
		if len(frame) < 9 {
			resp = append(resp, BinBadRequest)
		} else {
			arg := int64(binary.LittleEndian.Uint64(frame[1:]))
			switch {
			case frame[0] == binOpAdmit && len(frame) == 9:
				pl, err := s.cfg.Pipeline.Admit(int(arg))
				resp = appendAdmitResp(resp, pl, err)
			case frame[0] == binOpAdmitTraced && len(frame) == 17:
				traceID := binary.LittleEndian.Uint64(frame[9:])
				pl, err := s.cfg.Pipeline.AdmitTraced(int(arg), traceID)
				resp = appendAdmitResp(resp, pl, err)
			case frame[0] == binOpLeave && len(frame) == 9:
				resp = append(resp, binStatus(s.cfg.Pipeline.Leave(int(arg))))
			default:
				resp = append(resp, BinBadRequest)
			}
		}
		if _, err := bw.Write(frameEnd(resp)); err != nil {
			return
		}
		// Consecutive queued requests share one syscall, but only a
		// COMPLETE queued request may hold a reply back: the rest of a
		// partial one can be waiting on this very reply.
		if !frameBuffered(br) {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// frameBuffered reports whether br already holds a whole next frame, so
// the next readFrame cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4) // cannot fail: four bytes are buffered
	return uint64(br.Buffered()-4) >= uint64(binary.LittleEndian.Uint32(hdr))
}

// BinaryClient speaks the binary admission protocol over one connection.
// Not safe for concurrent use — one client per goroutine, which is also
// the protocol's pipelining model.
type BinaryClient struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	resp []byte
}

// DialBinary connects to a server started with StartBinary.
func DialBinary(addr string) (*BinaryClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newBinaryClient(conn), nil
}

func newBinaryClient(conn net.Conn) *BinaryClient {
	return &BinaryClient{
		conn: conn,
		br:   bufio.NewReader(conn),
		req:  make([]byte, 0, binMaxFrame),
		resp: make([]byte, binMaxFrame),
	}
}

func (c *BinaryClient) Close() error { return c.conn.Close() }

// roundTrip sends one request frame — one Write, so one segment on a
// TCP_NODELAY connection — and reads its reply.
func (c *BinaryClient) roundTrip(op byte, arg int64, trace ...uint64) ([]byte, error) {
	c.req = append(frameStart(c.req), op)
	c.req = binary.LittleEndian.AppendUint64(c.req, uint64(arg))
	for _, id := range trace {
		c.req = binary.LittleEndian.AppendUint64(c.req, id)
	}
	if _, err := c.conn.Write(frameEnd(c.req)); err != nil {
		return nil, err
	}
	frame, err := readFrame(c.br, c.resp)
	if err != nil {
		return nil, err
	}
	if len(frame) < 1 {
		return nil, fmt.Errorf("serve: empty binary response")
	}
	return frame, nil
}

func binErr(status byte) error {
	switch status {
	case BinOK:
		return nil
	case BinQueueFull:
		return ErrQueueFull
	case BinDraining:
		return ErrDraining
	case BinNoCapacity:
		return ErrNoCapacity
	case BinUnknownSess:
		return ErrUnknownSession
	default:
		return fmt.Errorf("serve: binary status %d", status)
	}
}

// Admit requests a placement; on success returns (session, server).
func (c *BinaryClient) Admit(game int) (session, server int, err error) {
	return c.admitFrame(c.roundTrip(binOpAdmit, int64(game)))
}

// AdmitTraced is Admit carrying a client-minted trace identifier the
// server roots the admission trace at (0 lets the server mint one).
func (c *BinaryClient) AdmitTraced(game int, traceID uint64) (session, server int, err error) {
	return c.admitFrame(c.roundTrip(binOpAdmitTraced, int64(game), traceID))
}

func (c *BinaryClient) admitFrame(frame []byte, err error) (session, server int, _ error) {
	if err != nil {
		return 0, 0, err
	}
	if err := binErr(frame[0]); err != nil {
		return 0, 0, err
	}
	if len(frame) != 17 {
		return 0, 0, fmt.Errorf("serve: admit response of %d bytes", len(frame))
	}
	return int(int64(binary.LittleEndian.Uint64(frame[1:]))),
		int(int64(binary.LittleEndian.Uint64(frame[9:]))), nil
}

// Leave removes a session.
func (c *BinaryClient) Leave(session int) error {
	frame, err := c.roundTrip(binOpLeave, int64(session))
	if err != nil {
		return err
	}
	return binErr(frame[0])
}
