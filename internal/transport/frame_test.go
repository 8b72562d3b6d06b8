package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// framesOf frames msgs back to back with ids 1, 2, ... through the
// write path both ends share.
func framesOf(t *testing.T, msgs ...wire.Message) []byte {
	t.Helper()
	var buf []byte
	for i, m := range msgs {
		var err error
		if buf, err = appendFrame(buf, uint64(i+1), m); err != nil {
			t.Fatalf("appendFrame(%T): %v", m, err)
		}
	}
	return buf
}

func TestFrameRoundTrip(t *testing.T) {
	msgs := []wire.Message{
		wire.Ping{},
		wire.Lookup{Key: "k", T: 12},
		wire.LookupReply{Entries: []string{"a", "b"}},
	}
	fr := newFrameReader(bytes.NewReader(framesOf(t, msgs...)))
	for i, want := range msgs {
		id, got, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != uint64(i+1) || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame round trip: got id %d %#v, want id %d %#v", id, got, i+1, want)
		}
	}
	if _, _, err := fr.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("next on drained stream = %v, want EOF", err)
	}
}

// TestReadFrameRejectsBadLength pins the shared reader's bounds: a zero
// length, a length over wire.MaxFrameBody, and a body cut short.
func TestReadFrameRejectsBadLength(t *testing.T) {
	var over [4]byte
	binary.BigEndian.PutUint32(over[:], wire.MaxFrameBody+1)
	frame := framesOf(t, wire.Lookup{Key: "abcdef", T: 1})
	for name, data := range map[string][]byte{
		"zero length": {0, 0, 0, 0},
		"over limit":  over[:],
		"max uint32":  {0xFF, 0xFF, 0xFF, 0xFF},
		"truncated":   frame[:len(frame)-2],
	} {
		if _, _, err := newFrameReader(bytes.NewReader(data)).next(); err == nil {
			t.Errorf("%s: frame accepted", name)
		}
	}
}

// TestFrameZeroLengthBoundary pins the agreement between the two frame
// ends at the small end: the reader rejects a zero-length frame and a
// header with no payload, and the smallest frame the writer can emit
// (a Ping) is still above that boundary.
func TestFrameZeroLengthBoundary(t *testing.T) {
	_, _, err := newFrameReader(bytes.NewReader([]byte{0, 0, 0, 0})).next()
	if err == nil || !strings.Contains(err.Error(), "bad frame length") {
		t.Fatalf("zero-length frame: err = %v, want bad frame length", err)
	}
	ping := framesOf(t, wire.Ping{})
	headerOnly := append(binary.BigEndian.AppendUint32(nil, wire.FrameV2Overhead), ping[4:4+wire.FrameV2Overhead]...)
	if _, _, err := newFrameReader(bytes.NewReader(headerOnly)).next(); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("header-only frame: err = %v, want ErrTruncated", err)
	}
}

// TestFrameMinimumPayloadRoundTrip round-trips the smallest message the
// codec can produce (Ping encodes to exactly one byte — the kind), the
// frame closest to the zero-length boundary.
func TestFrameMinimumPayloadRoundTrip(t *testing.T) {
	if got := len(wire.Encode(wire.Ping{})); got != 1 {
		t.Fatalf("Ping encodes to %d bytes, want 1 (test premise)", got)
	}
	frame := framesOf(t, wire.Ping{})
	if want := 4 + wire.FrameV2Overhead + 1; len(frame) != want {
		t.Fatalf("framed Ping is %d bytes, want %d", len(frame), want)
	}
	_, msg, err := newFrameReader(bytes.NewReader(frame)).next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if _, ok := msg.(wire.Ping); !ok {
		t.Fatalf("round trip returned %T, want wire.Ping", msg)
	}
}

// oversizedReply is a LookupReply whose frame body exceeds
// wire.MaxFrameBody. Every entry shares one backing string, so it costs
// memory only once it is encoded.
func oversizedReply() wire.LookupReply {
	entry := strings.Repeat("x", 32<<10)
	entries := make([]string, wire.MaxPayload/len(entry)+1)
	for i := range entries {
		entries[i] = entry
	}
	return wire.LookupReply{Entries: entries}
}

// TestWriteFrameRejectsOversizedPayload: a message larger than the
// codec limit must be refused at the sender, not silently truncated,
// and the destination buffer must come back unchanged.
func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	prefix := []byte("prior frames")
	got, err := appendFrame(prefix, 1, oversizedReply())
	if !errors.Is(err, wire.ErrOversized) {
		t.Fatalf("oversized frame: err = %v, want ErrOversized", err)
	}
	if !bytes.Equal(got, prefix) {
		t.Fatalf("refused frame left %d bytes behind, want %d", len(got), len(prefix))
	}
}

// oversizedEcho answers Lookup "huge" with a reply over the frame
// limit and holds Lookup "slow" until release closes.
type oversizedEcho struct {
	slowStarted chan struct{}
	release     chan struct{}
}

func (h oversizedEcho) Handle(_ context.Context, msg wire.Message) wire.Message {
	m, ok := msg.(wire.Lookup)
	if !ok {
		return wire.Ack{}
	}
	switch m.Key {
	case "huge":
		return oversizedReply()
	case "slow":
		h.slowStarted <- struct{}{}
		<-h.release
	}
	return wire.LookupReply{Entries: []string{m.Key}}
}

// TestOversizedFrameFailsOnlyItsCall: an oversized request or reply
// fails that one call with an error that is not ErrServerDown, so
// nothing retries or fails over. A sibling call in flight on the same
// connection still gets its reply.
func TestOversizedFrameFailsOnlyItsCall(t *testing.T) {
	h := oversizedEcho{slowStarted: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(h.release) }) }
	defer release() // before srv.Close, which waits for the held handler
	client := NewClient([]string{addr}, WithMuxConns(1), WithTimeout(10*time.Second))
	defer client.Close()
	ctx := context.Background()

	sibling := make(chan error, 1)
	go func() {
		reply, err := client.Call(ctx, 0, wire.Lookup{Key: "slow", T: 1})
		if lr, ok := reply.(wire.LookupReply); err == nil && (!ok || len(lr.Entries) != 1) {
			err = errors.New("wrong reply for the sibling call")
		}
		sibling <- err
	}()
	<-h.slowStarted

	big := oversizedReply()
	_, err = client.Call(ctx, 0, wire.Place{Key: "k", Entries: big.Entries})
	if !errors.Is(err, wire.ErrOversized) || errors.Is(err, ErrServerDown) {
		t.Fatalf("oversized request: err = %v, want ErrOversized and not ErrServerDown", err)
	}

	reply, err := client.Call(ctx, 0, wire.Lookup{Key: "huge", T: 1})
	if err != nil {
		t.Fatalf("oversized reply: err = %v, want an error reply", err)
	}
	if ack, ok := reply.(wire.Ack); !ok || !strings.Contains(ack.Err, "exceeds") {
		t.Fatalf("oversized reply: got %#v, want an Ack naming the size limit", reply)
	}

	release()
	if err := <-sibling; err != nil {
		t.Fatalf("sibling call on the same connection: %v", err)
	}
}

// TestServerClosesOnV1Frame: a v1-shaped body (a bare wire.Encode
// payload) is a malformed frame. The server closes the connection and
// sends no reply.
func TestServerClosesOnV1Frame(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := wire.Encode(wire.Ping{})
	if _, err := conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	var ne net.Error
	if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("read after v1 frame: %d bytes, err = %v; want the server to close the connection", n, err)
	}
}
