package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The write-ahead log. Every acknowledged mutation is appended as a
// CRC-checked, length-prefixed record before the ack leaves the node,
// so a crash loses at most unacknowledged work. Each node keeps one
// log: one active segment, one record buffer and one committer.
// Appends run under the key lock, so per-key record order matches
// application order. Under SyncBatch and SyncAlways the file holds
// records in sequence order; under SyncNever concurrent appends of
// different keys land in whatever order their writes reach the kernel.
//
// On-disk layout, under <data-dir>/wal/:
//
//	<first-sequence>.wal          (20 digits, zero-padded)
//
// Each segment starts with a 16-byte header (8-byte magic "plswal02",
// 8-byte big-endian first sequence number) followed by frames:
//
//	[4-byte payload length][4-byte CRC32-C][8-byte sequence][payload]
//
// The CRC covers the sequence and the payload, so a torn or corrupted
// record is detected whichever bytes were lost. Payloads are
// wire-encoded Wal* messages (see internal/wire), sharing the protocol
// codec's bounds checks and fuzz coverage. Sequence numbers are
// strictly increasing across segments; snapshots record them as
// per-key replay cutoffs.

// walMagic identifies WAL segment files; the trailing digits version
// the format.
const walMagic = "plswal02"

// snapMagic identifies snapshot files (see snapshot.go).
const snapMagic = "plssnp01"

const (
	walDirName      = "wal"
	walHeaderSize   = 8 + 8
	walFrameHeader  = 4 + 4 + 8
	walMaxRecordLen = wire.MaxPayload
	// legacyHeaderSize is the header of the striped plswal01 segments
	// (magic, stripe, first sequence) that the one log replaced.
	legacyHeaderSize = 8 + 4 + 8
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WAL errors.
var (
	ErrWALClosed = errors.New("store: WAL closed")
)

// SyncPolicy selects when an appended record counts as durable.
type SyncPolicy uint8

const (
	// SyncBatch is group commit: appenders buffer records and block in
	// WaitDurable until the committer has written and fsynced them; all
	// records that accumulate while one fsync is in flight share the
	// next one. Durable against OS crash and power loss.
	SyncBatch SyncPolicy = iota
	// SyncAlways commits like SyncBatch, but Append itself waits for
	// the fsync, so a mutation is durable before its key unlocks.
	SyncAlways
	// SyncNever writes records to the OS on every append but never
	// fsyncs: durable against process crash (kill -9) but not OS crash.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always, batch, or never)", s)
	}
}

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// WAL is a node's write-ahead log rooted at a data directory. Open it
// with OpenWAL, recover existing records with Replay, then Start it for
// appending. All methods are safe for concurrent use once started.
type WAL struct {
	dir     string // the wal/ subdirectory
	policy  SyncPolicy
	metrics *telemetry.WALMetrics
	seq     atomic.Uint64 // last assigned sequence; advanced under mu
	// sticky holds the first write or sync failure, which poisons the
	// log. It is atomic so acks under SyncNever check it without mu.
	sticky atomic.Pointer[error]

	// ioMu serializes whatever writes the buffer out, fsyncs, or swaps
	// the file: the committer, SyncAll, Rotate and Close. Appenders
	// never take it, so none of them waits on a running fsync, and the
	// file is never closed under the committer.
	ioMu sync.Mutex
	// fileMu is held shared by SyncNever appenders across their write,
	// and exclusively (after ioMu) only to swap or close the file.
	fileMu sync.RWMutex

	mu      sync.Mutex
	durable *sync.Cond // on mu: synced advanced, or the log failed or closed
	f       *os.File   // active segment; nil before Start and after Close
	fd      int        // f's descriptor, for SyncNever's writes
	path    string
	wrote   bool   // any record appended to the active segment
	buf     []byte // frames awaiting the committer (batch and always)
	synced  uint64 // last sequence durable per the policy
	closed  bool   // Close has begun; appends fail from then on

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// OpenWAL prepares a WAL under dir with the given policy. No segment
// file is opened yet: call Replay to recover what's on disk, then Start
// to begin appending. metrics may be nil.
func OpenWAL(dir string, policy SyncPolicy, metrics *telemetry.WALMetrics) (*WAL, error) {
	wdir := filepath.Join(dir, walDirName)
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create WAL dir: %w", err)
	}
	w := &WAL{
		dir:     wdir,
		policy:  policy,
		metrics: metrics,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	w.durable = sync.NewCond(&w.mu)
	return w, nil
}

// ReplayStats reports what a Replay pass found on disk.
type ReplayStats struct {
	// Segments and Records are the valid segment files and records read.
	Segments int
	Records  int
	// TruncatedBytes counts bytes dropped because a record was torn
	// (partially written) or failed its CRC: everything after the first
	// bad frame of the log, later segments included. A record is only
	// acknowledged once durable, so a torn tail is unacknowledged work;
	// a gap mid-log leaves the node like one that lost its tail, which
	// repair heals.
	TruncatedBytes int64
	// TruncatedSegments counts files physically truncated to their valid
	// prefix (or removed, when that is shorter than a header).
	TruncatedSegments int
}

// Replay reads every segment in sequence order and calls fn for each
// record, stopping at the first torn or CRC-failed frame. That segment
// is truncated to its valid prefix and every later segment is renamed
// to *.wal.dropped, so neither this start nor a later one replays past
// the gap. Replay must run before Start.
func (w *WAL) Replay(fn func(seq uint64, msg wire.Message) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := w.segments()
	if err != nil {
		return stats, err
	}
	// A crash while rotating can leave the newest segment cut short in
	// its header. It holds no record, so it goes like a torn tail.
	if n := len(segs); n > 0 {
		if fi, err := os.Stat(segs[n-1]); err == nil && fi.Size() < walHeaderSize {
			if err := os.Remove(segs[n-1]); err != nil {
				return stats, fmt.Errorf("store: remove headerless WAL segment: %w", err)
			}
			stats.TruncatedBytes += fi.Size()
			stats.TruncatedSegments++
			segs = segs[:n-1]
		}
	}
	last := w.seq.Load()
	for i, path := range segs {
		valid, bad, err := replaySegmentFile(path, func(seq uint64, msg wire.Message) error {
			last = max(last, seq)
			stats.Records++
			return fn(seq, msg)
		})
		if err != nil {
			return stats, err
		}
		stats.Segments++
		if bad == 0 {
			continue
		}
		stats.TruncatedBytes += bad
		stats.TruncatedSegments++
		if err := os.Truncate(path, valid); err != nil {
			return stats, fmt.Errorf("store: truncate torn WAL %s: %w", path, err)
		}
		for _, later := range segs[i+1:] {
			if fi, err := os.Stat(later); err == nil {
				stats.TruncatedBytes += fi.Size()
			}
			if err := os.Rename(later, later+".dropped"); err != nil {
				return stats, fmt.Errorf("store: set aside WAL segment past a gap: %w", err)
			}
		}
		if err := syncDir(w.dir); err != nil {
			return stats, err
		}
		break
	}
	w.seq.Store(last)
	return stats, nil
}

// replaySegmentFile scans one segment, invoking fn per valid frame. It
// returns the byte offset of the valid prefix and how many trailing
// bytes are invalid (0 when the whole file parses). An unreadable or
// header-less file is reported as an error; malformed frames are data
// loss, not I/O errors, and are reported via the invalid-suffix length.
func replaySegmentFile(path string, fn func(seq uint64, msg wire.Message) error) (validEnd int64, invalid int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("store: read WAL segment: %w", err)
	}
	if len(data) < walHeaderSize || string(data[:8]) != walMagic {
		return 0, 0, fmt.Errorf("store: %s: not a WAL segment", path)
	}
	off := int64(walHeaderSize)
	rest := data[walHeaderSize:]
	for len(rest) > 0 {
		seq, payload, n, ok := parseFrame(rest)
		if !ok {
			return off, int64(len(rest)), nil
		}
		msg, decErr := wire.Decode(payload)
		if decErr != nil {
			return off, int64(len(rest)), nil
		}
		if err := fn(seq, msg); err != nil {
			return off, 0, err
		}
		off += int64(n)
		rest = rest[n:]
	}
	return off, 0, nil
}

// parseFrame reads one frame from the head of data. ok is false when
// the frame is torn, oversized, or fails its CRC.
func parseFrame(data []byte) (seq uint64, payload []byte, n int, ok bool) {
	if len(data) < walFrameHeader {
		return 0, nil, 0, false
	}
	plen := binary.BigEndian.Uint32(data[0:4])
	if plen == 0 || plen > walMaxRecordLen {
		return 0, nil, 0, false
	}
	n = walFrameHeader + int(plen)
	if len(data) < n {
		return 0, nil, 0, false
	}
	crc := binary.BigEndian.Uint32(data[4:8])
	if crc32.Checksum(data[8:n], walCRC) != crc {
		return 0, nil, 0, false
	}
	seq = binary.BigEndian.Uint64(data[8:16])
	return seq, data[16:n], n, true
}

// appendFrame encodes rec as one frame onto buf.
func appendFrame(buf []byte, seq uint64, rec wire.Message) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, walFrameHeader)...)
	buf = wire.AppendEncode(buf, rec)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-walFrameHeader))
	stampFrame(buf[start:], seq)
	return buf
}

// stampFrame writes seq and the CRC into the frame at the head of
// frame and returns the frame's size.
func stampFrame(frame []byte, seq uint64) int {
	n := walFrameHeader + int(binary.BigEndian.Uint32(frame[0:4]))
	binary.BigEndian.PutUint64(frame[8:16], seq)
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:n], walCRC))
	return n
}

// segments returns the log's segment files in sequence order. Striped
// segments of the plswal01 format (s<stripe>-<first>.wal) are settled
// on the way: one that holds no record is removed, as a cleanly stopped
// node leaves only such segments (its final snapshot pruned the rest);
// one that holds a record fails the call, naming the file, because this
// version cannot replay it and skipping it would lose acknowledged work.
func (w *WAL) segments() ([]string, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list WAL dir: %w", err)
	}
	type seg struct {
		first uint64
		path  string
	}
	var segs []seg
	for _, e := range ents {
		base, ok := strings.CutSuffix(e.Name(), ".wal")
		if !ok {
			continue
		}
		path := filepath.Join(w.dir, e.Name())
		if first, err := strconv.ParseUint(base, 10, 64); err == nil {
			segs = append(segs, seg{first, path})
			continue
		}
		var stripe int
		var first uint64
		if _, err := fmt.Sscanf(base, "s%d-%d", &stripe, &first); err != nil {
			continue
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("store: stat WAL segment: %w", err)
		}
		if fi.Size() > legacyHeaderSize {
			return nil, fmt.Errorf("store: %s holds records in the striped plswal01 format, which this version cannot replay; "+
				"start the previous version on this data dir and stop it with SIGTERM so its final snapshot covers them", path)
		}
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("store: remove empty plswal01 segment: %w", err)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	paths := make([]string, len(segs))
	for i, s := range segs {
		paths[i] = s.path
	}
	return paths, nil
}

// Start opens the active segment (starting after the highest replayed
// sequence) and, unless the policy is SyncNever, launches the
// committer. Appends are accepted once Start returns.
func (w *WAL) Start() error {
	f, path, err := w.newSegment()
	if err != nil {
		return err
	}
	if err := w.syncNewSegment(f); err != nil {
		f.Close()
		return err
	}
	w.mu.Lock()
	w.f, w.fd, w.path = f, int(f.Fd()), path
	w.mu.Unlock()
	if w.policy != SyncNever {
		w.wg.Add(1)
		go w.commitLoop()
	}
	return nil
}

// newSegment creates and headers a segment whose first record will
// take the sequence after the last one assigned. Callers hold mu
// (Rotate) or run before appends start (Start), so no sequence is
// assigned meanwhile; syncNewSegment then makes the file durable. The
// file is opened O_APPEND, so SyncNever's concurrent writes each land
// whole at the end.
func (w *WAL) newSegment() (*os.File, string, error) {
	first := w.seq.Load() + 1
	path := filepath.Join(w.dir, fmt.Sprintf("%020d.wal", first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if os.IsExist(err) {
		// A crash between rotation and the first append leaves a
		// record-less segment with exactly this start sequence. It holds
		// nothing (any records in it would have advanced the replayed
		// sequence past `first`), so overwrite it — but verify that.
		if fi, serr := os.Stat(path); serr == nil && fi.Size() > walHeaderSize {
			return nil, "", fmt.Errorf("store: segment %s exists with %d bytes but sequence says it is empty", path, fi.Size())
		}
		f, err = os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return nil, "", fmt.Errorf("store: create WAL segment: %w", err)
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic)
	binary.BigEndian.PutUint64(hdr[8:16], first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, "", fmt.Errorf("store: write WAL header: %w", err)
	}
	return f, path, nil
}

// syncNewSegment fsyncs a new segment's header (unless the policy is
// SyncNever) and its directory entry. Callers hold ioMu or run before
// the committer starts, so no commit can claim records in the file
// durable before the file itself is.
func (w *WAL) syncNewSegment(f *os.File) error {
	if w.policy != SyncNever {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("store: sync WAL header: %w", err)
		}
	}
	return syncDir(w.dir)
}

// Append logs recs and returns the sequence of the last one. Under
// SyncAlways the records are durable when Append returns; under
// SyncBatch callers pass the sequence to WaitDurable before
// acknowledging; under SyncNever Append writes the records to the OS
// itself.
func (w *WAL) Append(recs ...wire.Message) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	// Frame outside the lock; sequences are restamped under it. Most
	// records encode in under 64 bytes.
	frames := make([]byte, 0, len(recs)*(walFrameHeader+64))
	for _, rec := range recs {
		frames = appendFrame(frames, 0, rec)
	}
	if w.policy == SyncNever {
		w.fileMu.RLock()
		defer w.fileMu.RUnlock()
	}
	w.mu.Lock()
	if w.closed || w.f == nil {
		w.mu.Unlock()
		return 0, ErrWALClosed
	}
	last := w.seq.Load()
	for off := 0; off < len(frames); {
		last++
		off += stampFrame(frames[off:], last)
	}
	w.seq.Store(last)
	w.wrote = true
	fd := w.fd
	if w.policy != SyncNever {
		w.buf = append(w.buf, frames...)
	}
	w.mu.Unlock()
	w.metrics.RecordAppend(len(recs), int64(len(frames)-len(recs)*walFrameHeader))
	if w.policy == SyncNever {
		return last, w.writeNow(fd, frames)
	}
	select {
	case w.kick <- struct{}{}:
	default:
	}
	if w.policy == SyncAlways {
		return last, w.WaitDurable(last)
	}
	return last, nil
}

// writeNow hands frames to the OS in one write(2) on the raw
// descriptor, as os.File would park concurrent writers on its own lock;
// so SyncNever appenders write side by side. A short write poisons the
// log, as another append may already have landed behind it.
func (w *WAL) writeNow(fd int, frames []byte) error {
	n, err := syscall.Write(fd, frames)
	if err == nil && n < len(frames) {
		err = io.ErrShortWrite
	}
	if err != nil {
		err = fmt.Errorf("store: write WAL: %w", err)
		w.poison(err)
	}
	return err
}

// WaitDurable blocks until the record with the given sequence is
// durable per the sync policy, returning any sticky write error. Under
// SyncNever Append already wrote the record, so this only surfaces
// errors.
func (w *WAL) WaitDurable(seq uint64) error {
	if w.policy == SyncNever {
		return w.err()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.synced < seq && w.err() == nil && w.f != nil {
		w.durable.Wait()
	}
	if err := w.err(); err != nil {
		return err
	}
	if w.synced < seq {
		return ErrWALClosed
	}
	return nil
}

// err returns the sticky failure, if any.
func (w *WAL) err() error {
	if p := w.sticky.Load(); p != nil {
		return *p
	}
	return nil
}

// commitLoop is the committer shared by SyncBatch and SyncAlways:
// whatever accumulated in the buffer while the previous fsync was in
// flight commits under a single new one.
func (w *WAL) commitLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.kick:
			_ = w.SyncAll() // failures are sticky
		case <-w.done:
			return
		}
	}
}

// SyncAll writes the buffered records and fsyncs the active segment
// once, unless everything is already durable. The committer runs it
// per round; graceful shutdown and snapshots call it too.
func (w *WAL) SyncAll() error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	f, buf, last := w.f, w.buf, w.seq.Load()
	if f == nil || (len(buf) == 0 && last <= w.synced) {
		w.mu.Unlock()
		return nil
	}
	w.buf = nil
	w.mu.Unlock()
	return w.commit(f, buf, last)
}

// commit writes buf to f outside mu, fsyncs f, and marks every
// sequence up to last durable. Callers hold ioMu and have taken buf
// from the log.
func (w *WAL) commit(f *os.File, buf []byte, last uint64) error {
	var err error
	if len(buf) > 0 {
		_, err = f.Write(buf)
	}
	if err == nil {
		t0 := time.Now()
		if err = f.Sync(); err == nil {
			w.metrics.RecordFsync(time.Since(t0))
		}
	}
	if err != nil {
		w.poison(err)
		return err
	}
	w.mu.Lock()
	w.synced = max(w.synced, last)
	w.durable.Broadcast()
	w.mu.Unlock()
	return nil
}

// poison records the first write or sync failure and wakes every
// waiter: WaitDurable returns it from then on, so no ack claims
// durability past a failing disk.
func (w *WAL) poison(err error) {
	w.sticky.CompareAndSwap(nil, &err)
	w.mu.Lock()
	w.durable.Broadcast()
	w.mu.Unlock()
}

// Rotate seals the active segment (committing it first) and opens a
// fresh one. The snapshotter rotates before observing state, so
// everything the sealed segments hold is covered by the snapshot and
// PruneSealed may delete them once the snapshot is durable.
func (w *WAL) Rotate() error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	// Waiting out SyncNever's writes in flight leaves every record up
	// to last in the sealed file.
	w.fileMu.Lock()
	w.mu.Lock()
	// An untouched active segment (header only) is already fresh:
	// sealing it would recreate a file with the same start sequence.
	if w.f == nil || !w.wrote {
		w.mu.Unlock()
		w.fileMu.Unlock()
		return nil
	}
	sealed, buf, last := w.f, w.buf, w.seq.Load()
	f, path, err := w.newSegment()
	if err != nil {
		w.mu.Unlock()
		w.fileMu.Unlock()
		return err
	}
	w.f, w.fd, w.path, w.buf, w.wrote = f, int(f.Fd()), path, nil, false
	w.mu.Unlock()
	w.fileMu.Unlock()
	// Sync the new header first: the sealed segment's fsync may commit
	// the new file's directory entry, which must not precede its header.
	if err = w.syncNewSegment(f); err != nil {
		w.poison(err)
	} else {
		err = w.commit(sealed, buf, last)
	}
	if cerr := sealed.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("store: close sealed WAL segment: %w", cerr)
	}
	return err
}

// PruneSealed deletes every segment file but the active one. Call only
// after a snapshot covering the sealed segments is durable.
func (w *WAL) PruneSealed() error {
	w.mu.Lock()
	active := w.path
	w.mu.Unlock()
	segs, err := w.segments()
	if err != nil {
		return err
	}
	for _, path := range segs {
		if path == active {
			continue
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: prune WAL segment: %w", err)
		}
	}
	return syncDir(w.dir)
}

// Close stops the committer, commits pending records, and closes the
// active segment. Appends fail with ErrWALClosed from the moment Close
// begins, so every record appended before it is committed here.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
	err := w.SyncAll()
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.fileMu.Lock() // SyncNever writes in flight land first
	defer w.fileMu.Unlock()
	w.mu.Lock()
	if w.f != nil {
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.f = nil
	}
	w.durable.Broadcast()
	w.mu.Unlock()
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
