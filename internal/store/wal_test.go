package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// replayAll collects every record a Replay pass yields.
type replayed struct {
	seq uint64
	msg wire.Message
}

func replayAll(t *testing.T, w *WAL) ([]replayed, ReplayStats) {
	t.Helper()
	var out []replayed
	stats, err := w.Replay(func(seq uint64, msg wire.Message) error {
		out = append(out, replayed{seq, msg})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out, stats
}

func mustOpen(t *testing.T, dir string, policy SyncPolicy) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustStart(t *testing.T, w *WAL) {
	t.Helper()
	if _, err := w.Replay(func(uint64, wire.Message) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, dir, policy)
			mustStart(t, w)
			recs := []wire.Message{
				wire.WalConfig{Key: "a", Config: wire.Config{Scheme: wire.RandomServer, X: 2, Y: 5}},
				wire.WalStoreMany{Key: "a", Entries: []string{"v1", "v2"}},
				wire.WalStore{Key: "a", Entry: "v3", Pos: 7, HasPos: true},
				wire.WalRemove{Key: "a", Entry: "v1"},
				wire.WalCounters{Key: "a", Head: 1, Tail: 8},
				wire.WalHCount{Key: "a", HCount: 3},
			}
			var lastSeq uint64
			for i, rec := range recs {
				seq, err := w.Append(rec)
				if err != nil {
					t.Fatalf("Append(%d): %v", i, err)
				}
				w.mu.Lock()
				synced := w.synced
				w.mu.Unlock()
				if policy == SyncAlways && synced < seq {
					t.Fatalf("SyncAlways Append(%d) returned before its fsync: synced %d < %d", i, synced, seq)
				}
				if err := w.WaitDurable(seq); err != nil {
					t.Fatalf("WaitDurable(%d): %v", i, err)
				}
				if seq <= lastSeq {
					t.Fatalf("sequence not increasing: %d after %d", seq, lastSeq)
				}
				lastSeq = seq
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			w2 := mustOpen(t, dir, policy)
			got, stats := replayAll(t, w2)
			if stats.Records != len(recs) || stats.TruncatedBytes != 0 {
				t.Fatalf("stats = %+v, want %d records, no truncation", stats, len(recs))
			}
			if got := w2.seq.Load(); got != lastSeq {
				t.Fatalf("last sequence after replay = %d, want %d", got, lastSeq)
			}
			for i, rec := range recs {
				if !reflect.DeepEqual(got[i].msg, rec) {
					t.Errorf("record %d replayed as %#v, want %#v", i, got[i].msg, rec)
				}
			}
			// A fresh segment after replay continues the sequence.
			if err := w2.Start(); err != nil {
				t.Fatal(err)
			}
			seq, err := w2.Append(wire.WalRemove{Key: "a", Entry: "v2"})
			if err != nil || seq != lastSeq+1 {
				t.Fatalf("post-replay Append = %d,%v, want %d,nil", seq, err, lastSeq+1)
			}
			w2.Close()
		})
	}
}

func TestWALReplayOrder(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	for i := 0; i < 20; i++ {
		if _, err := w.Append(wire.WalStore{Key: "k", Entry: "stored"}); err != nil {
			t.Fatal(err)
		}
	}
	// Rotations must not disturb replay order.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Append(wire.WalRemove{Key: "k", Entry: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	w2 := mustOpen(t, dir, SyncNever)
	got, _ := replayAll(t, w2)
	var prev uint64
	for _, r := range got {
		if r.seq <= prev {
			t.Fatalf("out-of-order replay: seq %d after %d", r.seq, prev)
		}
		prev = r.seq
	}
	if len(got) != 40 {
		t.Fatalf("replayed %d records, want 40", len(got))
	}
}

// TestWALTornTailTruncated simulates a crash mid-append: the final
// record is half-written. Replay must drop it, truncate the file, and
// keep everything before it.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	for i := 0; i < 5; i++ {
		if _, err := w.Append(wire.WalStore{Key: "k", Entry: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	path := onlySegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through the final frame.
	torn := data[:len(data)-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, SyncNever)
	got, stats := replayAll(t, w2)
	if len(got) != 4 {
		t.Fatalf("replayed %d records after torn tail, want 4", len(got))
	}
	if stats.TruncatedSegments != 1 || stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want 1 truncated segment", stats)
	}
	// The file was physically truncated: a second replay sees a clean log.
	w3 := mustOpen(t, dir, SyncNever)
	got3, stats3 := replayAll(t, w3)
	if len(got3) != 4 || stats3.TruncatedSegments != 0 {
		t.Fatalf("second replay: %d records, stats %+v; want 4 records, no truncation", len(got3), stats3)
	}
}

// TestWALCRCCorruptionMidFile flips a byte in the middle of the log:
// replay keeps the records before the damage, drops every record after
// it, and counts the dropped bytes.
func TestWALCRCCorruptionMidFile(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	for i := 0; i < 10; i++ {
		if _, err := w.Append(wire.WalStore{Key: "k", Entry: fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	path := onlySegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in roughly the middle of the file.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, SyncNever)
	got, stats := replayAll(t, w2)
	if len(got) == 0 || len(got) >= 10 {
		t.Fatalf("replayed %d records, want 0 < n < 10 after mid-file corruption", len(got))
	}
	for i, r := range got {
		if ws, ok := r.msg.(wire.WalStore); !ok || ws.Entry != fmt.Sprintf("v%d", i) {
			t.Fatalf("record %d = %#v, want the prefix before the damage", i, r.msg)
		}
	}
	if stats.TruncatedBytes == 0 || stats.TruncatedSegments != 1 {
		t.Fatalf("stats = %+v, want dropped bytes reported", stats)
	}
}

// TestWALCorruptionInvalidatesLaterSegments: damage in an older sealed
// segment must drop newer segments too — replaying past a gap would
// build state missing intermediate mutations. The newer segments are
// set aside, so the log starts again and a later start does not replay
// them either.
func TestWALCorruptionInvalidatesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	if _, err := w.Append(wire.WalStore{Key: "k", Entry: "old"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(wire.WalStore{Key: "k", Entry: "new"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Corrupt the first (sealed) segment's only record.
	segs := walSegments(t, dir)
	if len(segs) != 2 {
		t.Fatalf("log has %d segments, want 2", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, SyncNever)
	got, stats := replayAll(t, w2)
	if len(got) != 0 {
		t.Fatalf("replayed %d records, want 0 (gap must not be skipped)", len(got))
	}
	if stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want dropped bytes from the later segment", stats)
	}
	if _, err := os.Stat(segs[1] + ".dropped"); err != nil {
		t.Fatalf("segment past the gap not set aside: %v", err)
	}
	if err := w2.Start(); err != nil {
		t.Fatalf("Start after mid-log corruption: %v", err)
	}
	if _, err := w2.Append(wire.WalStore{Key: "k", Entry: "after"}); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	got, stats = replayAll(t, mustOpen(t, dir, SyncNever))
	if len(got) != 1 || got[0].msg.(wire.WalStore).Entry != "after" || stats.TruncatedBytes != 0 {
		t.Fatalf("second start replayed %v (stats %+v), want only the record written after the gap", got, stats)
	}
}

func TestWALGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncBatch)
	mustStart(t, w)
	const writers = 8
	const per = 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := w.Append(wire.WalStore{Key: "k", Entry: "v"})
				if err == nil {
					err = w.WaitDurable(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	w.Close()

	w2 := mustOpen(t, dir, SyncBatch)
	got, _ := replayAll(t, w2)
	if len(got) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(got), writers*per)
	}
}

// TestWALNeverConcurrentAppends checks SyncNever's concurrent writes:
// once Append returns, its record is in the file with no Close or
// fsync needed, every record lands whole exactly once, and each
// appender's records keep their order.
func TestWALNeverConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	defer w.Close()
	const writers = 8
	const per = 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := wire.WalStore{Key: fmt.Sprintf("k%d", g), Entry: fmt.Sprintf("v%03d", i)}
				if _, err := w.Append(rec); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Read the log as a restart after kill -9 would: w is still open.
	got, stats := replayAll(t, mustOpen(t, dir, SyncNever))
	if len(got) != writers*per || stats.TruncatedBytes != 0 {
		t.Fatalf("replayed %d records (stats %+v), want %d", len(got), stats, writers*per)
	}
	seen := map[uint64]bool{}
	lastEntry := map[string]string{}
	for _, r := range got {
		if r.seq == 0 || r.seq > writers*per || seen[r.seq] {
			t.Fatalf("sequence %d out of range or repeated", r.seq)
		}
		seen[r.seq] = true
		ws := r.msg.(wire.WalStore)
		if ws.Entry <= lastEntry[ws.Key] {
			t.Fatalf("key %s: %s replayed after %s", ws.Key, ws.Entry, lastEntry[ws.Key])
		}
		lastEntry[ws.Key] = ws.Entry
	}
}

// TestAlwaysUpdateRacingClose runs SyncAlways updates against a
// concurrent Close: every update whose WaitDurable returned nil, and so
// would have been acknowledged, must replay after the restart.
func TestAlwaysUpdateRacingClose(t *testing.T) {
	for round := 0; round < 10; round++ {
		dir := t.TempDir()
		w := mustOpen(t, dir, SyncAlways)
		mustStart(t, w)
		s := New()
		s.AttachWAL(w)
		const writers = 4
		var mu sync.Mutex
		acked := map[string]bool{}
		// Each writer makes at least one update after Close returns.
		var closed atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				key := fmt.Sprintf("k%d", g)
				ks := s.GetOrCreate(key, wire.Config{Scheme: wire.FullReplication})
				for i := 0; ; i++ {
					last := closed.Load()
					e := fmt.Sprintf("%s-%d", key, i)
					ks.Update(func(st *State) { st.Log(wire.WalStore{Key: key, Entry: e}) })
					if ks.WaitDurable() != nil {
						return
					}
					mu.Lock()
					acked[e] = true
					mu.Unlock()
					if last {
						return
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(round+1) * time.Millisecond)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		closed.Store(true)
		wg.Wait()
		got, _ := replayAll(t, mustOpen(t, dir, SyncAlways))
		logged := map[string]bool{}
		for _, r := range got {
			if ws, ok := r.msg.(wire.WalStore); ok {
				logged[ws.Entry] = true
			}
		}
		for e := range acked {
			if !logged[e] {
				t.Fatalf("round %d: %s was acknowledged but never logged", round, e)
			}
		}
	}
}

// TestWALReplayRemovesHeaderlessNewestSegment simulates a crash during
// rotation that left the newest segment shorter than its header: it
// holds no record, so Replay removes it and the node starts.
func TestWALReplayRemovesHeaderlessNewestSegment(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncBatch)
	mustStart(t, w)
	for i := 0; i < 3; i++ {
		seq, err := w.Append(wire.WalStore{Key: "k", Entry: fmt.Sprintf("v%d", i)})
		if err == nil {
			err = w.WaitDurable(seq)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	segs := walSegments(t, dir)
	if len(segs) != 2 {
		t.Fatalf("log has %d segments after rotation, want 2", len(segs))
	}
	if err := os.Truncate(segs[1], 5); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, SyncBatch)
	got, stats := replayAll(t, w2)
	if len(got) != 3 || stats.TruncatedSegments != 1 || stats.TruncatedBytes != 5 {
		t.Fatalf("replayed %d records (stats %+v), want 3 and the 5-byte segment dropped", len(got), stats)
	}
	if _, err := os.Stat(segs[1]); !os.IsNotExist(err) {
		t.Fatalf("headerless segment still on disk: %v", err)
	}
	if err := w2.Start(); err != nil {
		t.Fatalf("Start after dropping a headerless segment: %v", err)
	}
	w2.Close()
}

func TestWALPruneSealedKeepsActive(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	if _, err := w.Append(wire.WalStore{Key: "k", Entry: "sealed"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(wire.WalStore{Key: "k", Entry: "active"}); err != nil {
		t.Fatal(err)
	}
	if err := w.PruneSealed(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2 := mustOpen(t, dir, SyncNever)
	got, _ := replayAll(t, w2)
	if len(got) != 1 {
		t.Fatalf("replayed %d records after prune, want 1", len(got))
	}
	if ws, ok := got[0].msg.(wire.WalStore); !ok || ws.Entry != "active" {
		t.Fatalf("surviving record = %#v, want the active-segment one", got[0].msg)
	}
}

func TestWALAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncBatch)
	mustStart(t, w)
	w.Close()
	if _, err := w.Append(wire.WalStore{Key: "k", Entry: "v"}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"batch", SyncBatch}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v,%v, want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

// onlySegment returns the log's single segment file.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs := walSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("log has %d segments, want 1", len(segs))
	}
	return segs[0]
}

// walSegments lists the log's segment files sorted by name (which
// sorts by first sequence, thanks to zero padding).
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, walDirName, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestSnapshotWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	keys := []wire.SnapKey{
		{Key: "a", Config: wire.Config{Scheme: wire.RandomServer, X: 2, Y: 5}, LSN: 10,
			Entries: []string{"v1", "v2"}, Seqs: []uint64{0, 1}, NextSeq: 2,
			ExtKind: wire.SnapExtRS, HCount: 4},
		{Key: "b", Config: wire.Config{Scheme: wire.RoundRobin, X: 1, Y: 3}, LSN: 12,
			Entries: []string{"w"}, Seqs: []uint64{5}, NextSeq: 6,
			ExtKind: wire.SnapExtRound, Head: 2, Tail: 7,
			PosEntries: []string{"w"}, Positions: []uint64{4}},
	}
	path, size, err := WriteSnapshot(dir, 1, func(write func(wire.SnapKey) error) error {
		for _, k := range keys {
			if err := write(k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatalf("snapshot size = %d", size)
	}
	if filepath.Ext(path) != ".snap" {
		t.Fatalf("snapshot path = %q", path)
	}
	gen, got, err := LoadNewestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || !reflect.DeepEqual(got, keys) {
		t.Fatalf("loaded gen %d keys %#v, want gen 1 %#v", gen, got, keys)
	}
}

func TestSnapshotEmptyIsValid(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := WriteSnapshot(dir, 3, func(func(wire.SnapKey) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	gen, keys, err := LoadNewestSnapshot(dir)
	if err != nil || gen != 3 || len(keys) != 0 {
		t.Fatalf("empty snapshot load = gen %d, %d keys, err %v", gen, len(keys), err)
	}
}

func TestSnapshotNoneOnDisk(t *testing.T) {
	gen, keys, err := LoadNewestSnapshot(t.TempDir())
	if err != nil || gen != 0 || keys != nil {
		t.Fatalf("LoadNewestSnapshot(empty dir) = %d,%v,%v; want 0,nil,nil", gen, keys, err)
	}
}

// TestSnapshotCorruptFallsBackToOlder: a damaged newest snapshot is
// skipped in favor of the previous generation.
func TestSnapshotCorruptFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	old := wire.SnapKey{Key: "old", NextSeq: 0}
	if _, _, err := WriteSnapshot(dir, 1, func(w func(wire.SnapKey) error) error { return w(old) }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := WriteSnapshot(dir, 2, func(w func(wire.SnapKey) error) error {
		return w(wire.SnapKey{Key: "new"})
	}); err != nil {
		t.Fatal(err)
	}
	// Corrupt generation 2.
	path := snapPath(dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	gen, keys, err := LoadNewestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || len(keys) != 1 || keys[0].Key != "old" {
		t.Fatalf("fallback load = gen %d keys %v", gen, keys)
	}
}

// TestSnapshotMissingFooterRejected: a snapshot without its footer
// frame (incomplete write) must not load.
func TestSnapshotMissingFooterRejected(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := WriteSnapshot(dir, 1, func(w func(wire.SnapKey) error) error {
		return w(wire.SnapKey{Key: "k"})
	}); err != nil {
		t.Fatal(err)
	}
	path := snapPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the footer frame: find its start by re-parsing.
	rest := data[snapHeaderSize:]
	var lastFrame int
	off := snapHeaderSize
	for len(rest) > 0 {
		_, _, n, ok := parseFrame(rest)
		if !ok {
			t.Fatal("snapshot failed to parse during test setup")
		}
		lastFrame = off
		off += n
		rest = rest[n:]
	}
	if err := os.WriteFile(path, data[:lastFrame], 0o644); err != nil {
		t.Fatal(err)
	}
	gen, keys, _ := LoadNewestSnapshot(dir)
	if gen != 0 || keys != nil {
		t.Fatalf("footerless snapshot loaded: gen %d keys %v", gen, keys)
	}
}

func TestSnapshotPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 4; gen++ {
		if _, _, err := WriteSnapshot(dir, gen, func(func(wire.SnapKey) error) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneSnapshots(dir, 2); err != nil {
		t.Fatal(err)
	}
	gens, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gens, []uint64{3, 4}) {
		t.Fatalf("generations after prune = %v, want [3 4]", gens)
	}
}

func TestNextSnapshotGen(t *testing.T) {
	dir := t.TempDir()
	gen, err := NextSnapshotGen(dir)
	if err != nil || gen != 1 {
		t.Fatalf("NextSnapshotGen(empty) = %d,%v, want 1,nil", gen, err)
	}
	if _, _, err := WriteSnapshot(dir, 7, func(func(wire.SnapKey) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	gen, err = NextSnapshotGen(dir)
	if err != nil || gen != 8 {
		t.Fatalf("NextSnapshotGen = %d,%v, want 8,nil", gen, err)
	}
}

// TestFrameRoundTrip exercises the frame codec directly, including the
// header layout constants.
func TestFrameRoundTrip(t *testing.T) {
	rec := wire.WalStore{Key: "hello", Entry: "frames"}
	payload := wire.Encode(rec)
	buf := appendFrame(nil, 42, rec)
	if len(buf) != walFrameHeader+len(payload) {
		t.Fatalf("frame length %d, want %d", len(buf), walFrameHeader+len(payload))
	}
	if got := binary.BigEndian.Uint32(buf[0:4]); got != uint32(len(payload)) {
		t.Fatalf("length field %d, want %d", got, len(payload))
	}
	seq, got, n, ok := parseFrame(buf)
	if !ok || seq != 42 || string(got) != string(payload) || n != len(buf) {
		t.Fatalf("parseFrame = %d,%q,%d,%v", seq, got, n, ok)
	}
	// Any single-byte flip must be caught: a shortened length field
	// yields a CRC computed over the wrong range, a lengthened one runs
	// past the buffer, and everything else breaks the checksum.
	for i := range buf {
		buf[i] ^= 1
		if _, _, _, ok := parseFrame(buf); ok {
			t.Fatalf("bit flip at %d undetected", i)
		}
		buf[i] ^= 1
	}
}
