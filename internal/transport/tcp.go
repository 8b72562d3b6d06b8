package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// Frame format: 4-byte big-endian body length, then the frame body:
// wire.FrameV2Marker, an 8-byte request id, and the wire.Encode
// payload. Many requests share one connection and replies are matched
// by id. Both ends write frames through appendFrame and read them
// through frameReader.

// appendFrame appends msg to dst as one frame tagged id. A frame whose
// body would exceed wire.MaxFrameBody is refused with an error wrapping
// wire.ErrOversized and dst comes back unchanged: the peer's reader
// drops the connection over such a frame, failing every other call
// that shares it.
func appendFrame(dst []byte, id uint64, msg wire.Message) ([]byte, error) {
	start := len(dst)
	dst = wire.AppendFrameV2(dst, id, msg)
	if n := len(dst) - start - 4; n > wire.MaxFrameBody {
		return dst[:start], fmt.Errorf("transport: %T frame body of %d bytes exceeds %d: %w",
			msg, n, wire.MaxFrameBody, wire.ErrOversized)
	}
	return dst, nil
}

// frameReader reads frames off one connection. The server's request
// loop and the client's demux loop share it. It bounds the length
// prefix, reuses one body buffer across frames, and decodes each
// payload. Any error leaves the stream unusable: the caller closes the
// connection.
type frameReader struct {
	br   *bufio.Reader
	hdr  [4]byte
	body []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 32<<10)}
}

// next returns the next frame's request id and message. wire.Decode
// copies into a fresh arena, so the message stays valid after the body
// buffer is reused by the following call.
func (r *frameReader) next() (uint64, wire.Message, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("transport: read: %w", err)
	}
	n := binary.BigEndian.Uint32(r.hdr[:])
	if n == 0 || n > wire.MaxFrameBody {
		return 0, nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	if cap(r.body) < int(n) {
		r.body = make([]byte, n)
	}
	r.body = r.body[:n]
	if _, err := io.ReadFull(r.br, r.body); err != nil {
		return 0, nil, fmt.Errorf("transport: read frame body: %w", err)
	}
	fb, err := wire.ParseFrameBody(r.body)
	if err != nil {
		return 0, nil, fmt.Errorf("transport: parse frame: %w", err)
	}
	msg, err := wire.Decode(fb.Payload)
	if err != nil {
		return 0, nil, fmt.Errorf("transport: decode frame: %w", err)
	}
	return fb.ID, msg, nil
}

// maxInflightPerConn bounds the handler goroutines a single
// connection may have running at once. The bound is per connection, not
// global: it stops one pipelining peer from monopolizing the scheduler
// while leaving unrelated connections untouched.
const maxInflightPerConn = 256

// Server accepts TCP connections and serves a Handler. Every request
// frame is dispatched to its own handler goroutine (bounded by
// maxInflightPerConn), and each reply is tagged with the id of the
// request it answers, so replies may overtake slow requests instead of
// queueing behind them. A malformed frame, including any body that is
// not a v2 frame, closes the connection.
type Server struct {
	handler Handler

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a server for the given handler.
func NewServer(h Handler) *Server {
	return &Server{handler: h, conns: make(map[net.Conn]struct{})}
}

// Listen binds to addr (e.g. "127.0.0.1:0") and begins accepting
// connections in a background goroutine, returning the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("transport: server already closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// inflight must drain before the deferred conn.Close above runs
	// (defers are LIFO): a read-deadline kick from Shutdown breaks the
	// read loop, but handlers already running still get their replies
	// written.
	var (
		wmu      sync.Mutex
		inflight sync.WaitGroup
		sem      = make(chan struct{}, maxInflightPerConn)
	)
	defer inflight.Wait()

	fr := newFrameReader(conn)
	for {
		id, msg, err := fr.next()
		if err != nil {
			return
		}
		sem <- struct{}{}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			defer func() { <-sem }()
			reply := s.handler.Handle(context.Background(), msg)
			if reply == nil {
				reply = wire.Ack{}
			}
			buf := getFrameBuf()
			var ferr error
			if *buf, ferr = appendFrame((*buf)[:0], id, reply); ferr != nil {
				// Answer this call with the error rather than send a
				// frame the client would drop the connection over.
				*buf, _ = appendFrame(*buf, id, wire.Ack{Err: ferr.Error()})
			}
			wmu.Lock()
			_, werr := conn.Write(*buf)
			wmu.Unlock()
			putFrameBuf(buf)
			if werr != nil {
				// The peer is gone; the read loop will notice too. Replies
				// already written stay valid, this one is lost with the conn.
				conn.Close()
			}
		}()
	}
}

// Shutdown stops the server gracefully: the listener closes (no new
// connections), requests already in flight run to completion and their
// replies are written, and idle connections are kicked out of their
// blocking reads. It returns once every serving goroutine has exited,
// or forces the remaining connections closed when ctx expires first.
//
// A client whose request raced the shutdown sees its connection close
// without a reply — indistinguishable from a server crash, which the
// retry/failover layers already handle. What Shutdown guarantees is
// the converse: any reply the server has started processing is
// delivered before the process moves on to flushing durable state.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for conn := range s.conns {
		// Expire reads only: a goroutine blocked waiting for the next
		// request fails out immediately, while one mid-handle still
		// writes its reply (writes carry no deadline here).
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	var lnErr error
	if ln != nil {
		lnErr = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return lnErr
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		return ctx.Err()
	}
}

// Close stops accepting, closes all connections, and waits for the
// serving goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// getFrameBuf and putFrameBuf pool frame-encoding scratch buffers
// shared by the server's reply path and the multiplexed client.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if cap(*b) > wire.MaxFrameBody+4 {
		return // oversized one-off; let the GC take it
	}
	framePool.Put(b)
}
