package wire

import (
	"fmt"
	"testing"
)

// Allocation gate for the hot-path encoder. It is a hard build gate,
// not a benchmark: a change that re-introduces per-message allocations
// in AppendEncode on the five hottest kinds fails `go test` everywhere
// it runs (local, CI test job, race job). AppendFrameV2 runs it on
// every frame, so encoding into a with-capacity buffer must cost 0
// allocations.

func hotMessages() []Message {
	entries := make([]string, 16)
	for i := range entries {
		entries[i] = fmt.Sprintf("entry-%02d", i)
	}
	return []Message{
		Lookup{Key: "hot-key", T: 10},
		LookupReply{Entries: entries},
		Ack{},
		Add{Key: "hot-key", Config: Config{Scheme: RandomServer, X: 3}, Entry: "v-new"},
		StoreOne{Key: "hot-key", Config: Config{Scheme: RoundRobin, Y: 2}, Entry: "v-new", Pos: 7},
	}
}

// TestAppendEncodeZeroAllocs gates the encode half: re-encoding into a
// scratch buffer with capacity must not allocate at all.
func TestAppendEncodeZeroAllocs(t *testing.T) {
	for _, msg := range hotMessages() {
		msg := msg
		buf := make([]byte, 0, 1024)
		allocs := testing.AllocsPerRun(200, func() {
			buf = AppendEncode(buf[:0], msg)
		})
		if allocs > 0 {
			t.Errorf("AppendEncode(%T): %.1f allocs/op, want 0", msg, allocs)
		}
	}
}
