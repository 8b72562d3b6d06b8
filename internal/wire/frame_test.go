package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// TestParseFrameBodyVersions pins the parsing rule: a body opening
// with the v2 marker yields its id and payload; anything else —
// including a v1-shaped body that opens with a message kind — is a
// version error, never a misparse.
func TestParseFrameBodyVersions(t *testing.T) {
	payload := Encode(Lookup{Key: "k", T: 3})

	v2 := AppendFrameV2(nil, 42, Lookup{Key: "k", T: 3})
	fb, err := ParseFrameBody(v2[4:]) // strip the length prefix
	if err != nil || fb.ID != 42 || !bytes.Equal(fb.Payload, payload) {
		t.Fatalf("v2 body: got %+v, %v", fb, err)
	}
	if n := binary.BigEndian.Uint32(v2[:4]); int(n) != len(v2)-4 {
		t.Fatalf("v2 length prefix %d, body %d", n, len(v2)-4)
	}

	if _, err := ParseFrameBody(payload); !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("v1-shaped body: err = %v, want ErrFrameVersion", err)
	}
	if _, err := ParseFrameBody([]byte{0xEE, 1, 2}); !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("unknown leading byte: err = %v, want ErrFrameVersion", err)
	}
	if _, err := ParseFrameBody(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty body: err = %v, want ErrTruncated", err)
	}
	for cut := 1; cut <= FrameV2Overhead; cut++ {
		if _, err := ParseFrameBody(v2[4 : 4+cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("v2 body cut to %d bytes: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// FuzzMuxFrame throws arbitrary frame bodies at the parser: it must
// never panic, must reject every body that does not open with the v2
// marker, and any body it accepts must — when its payload also
// decodes — re-frame to an identical id and message through
// AppendFrameV2 (round-trip stability across the mux framing layer).
func FuzzMuxFrame(f *testing.F) {
	for _, msg := range allMessages() {
		f.Add(Encode(msg))                    // v1-shaped bodies: rejected
		f.Add(AppendFrameV2(nil, 7, msg)[4:]) // v2 bodies
		f.Add(AppendFrameV2(nil, ^uint64(0), msg)[4:])
	}
	// Version skew: a v2 header wrapping a v2 header, and the marker
	// colliding with payload content.
	inner := AppendFrameV2(nil, 1, Ping{})[4:]
	f.Add(append(append([]byte{FrameV2Marker}, make([]byte, 8)...), inner...))
	f.Add([]byte{FrameV2Marker})
	// Truncated v2 headers: marker plus partial request id.
	for cut := 1; cut < FrameV2Overhead; cut++ {
		f.Add(AppendFrameV2(nil, 99, Ping{})[4 : 4+cut])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, body []byte) {
		fb, err := ParseFrameBody(body)
		if err != nil {
			return
		}
		if body[0] != FrameV2Marker {
			t.Fatalf("accepted a body opening with %#x", body[0])
		}
		msg, err := Decode(fb.Payload)
		if err != nil {
			return
		}
		// Non-canonical varints may re-encode shorter, so compare the
		// parsed meaning, not the bytes.
		fb2, err := ParseFrameBody(AppendFrameV2(nil, fb.ID, msg)[4:])
		if err != nil {
			t.Fatalf("re-framed body rejected: %v", err)
		}
		if fb2.ID != fb.ID {
			t.Fatalf("re-framed id changed: %d vs %d", fb2.ID, fb.ID)
		}
		msg2, err := Decode(fb2.Payload)
		if err != nil {
			t.Fatalf("re-framed payload rejected: %v", err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip changed message: %#v vs %#v", msg, msg2)
		}
	})
}
