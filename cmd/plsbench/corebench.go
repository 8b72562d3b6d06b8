package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Core hot-path benchmark (-core-bench): sweeps GOMAXPROCS over the
// full lookup stack — epoch-read store behind a node, served over the
// multiplexed TCP transport with the zero-copy wire codec — then
// toggles each layer off in turn so a regression can be blamed on the
// layer that caused it:
//
//   - transport: mux client (pipelined, DefaultMuxConns) vs the same
//     TCP path forced to one serialized request at a time, the
//     pre-mux pool-per-call behavior.
//   - store: lock-free epoch reads (atomic snapshot load + SampleInto)
//     vs the identical reads behind a shared RWMutex read lock, the
//     pre-epoch architecture.
//   - codec: allocations per append-encode of the hot kinds via
//     testing.AllocsPerRun — the same zero internal/wire's alloc gate
//     enforces, recorded here so the trajectory is visible.
//
// The report (BENCH_core.json) is machine-readable so CI's benchdiff
// gate can compare it against the checked-in baseline per commit.

// coreBenchProcs is the GOMAXPROCS sweep. Points above runtime.NumCPU
// still run — goroutines just share the hardware threads — and are
// recorded as-is; the num_cpu field tells readers how many points
// could actually scale.
var coreBenchProcs = []int{1, 2, 4, 8}

type coreScalePoint struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	lockStats
}

// coreAllocStats is allocations per operation for the hot wire kinds,
// measured with testing.AllocsPerRun. The append paths are the
// encoder every frame runs on; generic_encode_allocs is the
// heap-allocating wire.Encode on the same message, kept as the
// comparison point.
type coreAllocStats struct {
	LookupAppendEncode float64 `json:"lookup_append_encode_allocs"`
	ReplyAppendEncode  float64 `json:"reply_append_encode_allocs"`
	GenericEncode      float64 `json:"generic_encode_allocs"`
}

type coreBenchReport struct {
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	Keys          int     `json:"keys"`
	EntriesPerKey int     `json:"entries_per_key"`
	LookupT       int     `json:"lookup_t"`
	WindowSec     float64 `json:"window_sec"`
	MuxConns      int     `json:"mux_conns"`

	// Scaling is the full stack (epoch store + mux transport + zero-copy
	// codec) at each swept GOMAXPROCS; ScalingMaxOver1 is the top point's
	// throughput over the 1-proc point.
	Scaling         []coreScalePoint `json:"scaling"`
	ScalingMaxOver1 float64          `json:"scaling_max_over_1"`
	// Note qualifies the ratios for single-CPU hosts.
	Note string `json:"note"`

	// Layer toggles, all at the top swept GOMAXPROCS. TransportMux is
	// the top scaling point; TransportSerialized forces one request in
	// flight on one connection.
	TransportMux        lockStats `json:"transport_mux"`
	TransportSerialized lockStats `json:"transport_serialized"`
	MuxOverSerialized   float64   `json:"mux_over_serialized"`

	// StoreEpoch/StoreRLock hammer the store read path directly (no
	// transport): atomic snapshot load vs RWMutex.RLock around the same
	// Get+Snapshot+SampleInto sequence.
	StoreEpoch     lockStats `json:"store_epoch"`
	StoreRLock     lockStats `json:"store_rlock"`
	EpochOverRLock float64   `json:"epoch_over_rlock"`

	CodecAllocs coreAllocStats `json:"codec_allocs"`
}

// newCoreBenchServer starts a TCP server around a freshly seeded
// single node and returns its address. The node's own peer calls ride
// an in-process transport so the TCP path under test carries only the
// benchmark's lookups.
func newCoreBenchServer() (addr string, cleanup func(), err error) {
	nd := node.New(0, stats.NewRNG(1))
	tr := transport.NewInproc(1)
	nd.Attach(tr)
	tr.Bind(0, nd)

	ctx := context.Background()
	entries := make([]string, nodeBenchEntries)
	for i := range entries {
		entries[i] = fmt.Sprintf("v%d", i+1)
	}
	for k := 0; k < nodeBenchKeys; k++ {
		reply, err := tr.Call(ctx, 0, wire.Place{
			Key:     nodeBenchKey(k),
			Config:  wire.Config{Scheme: wire.FullReplication},
			Entries: entries,
		})
		if err != nil {
			return "", nil, err
		}
		if ack, ok := reply.(wire.Ack); !ok || ack.Err != "" {
			return "", nil, fmt.Errorf("core-bench place: %#v", reply)
		}
	}

	srv := transport.NewServer(nd)
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	return addr, func() { srv.Close() }, nil
}

// hammerTCP runs the nodebench lookup hammer against addr through a
// fresh mux client. serialize recreates the pre-mux transport: one
// connection, one request in flight at a time.
func hammerTCP(addr string, serialize bool, window time.Duration) (lockStats, error) {
	conns := transport.DefaultMuxConns
	if serialize {
		conns = 1
	}
	client := transport.NewClient([]string{addr},
		transport.WithTimeout(10*time.Second),
		transport.WithMuxConns(conns))
	defer client.Close()
	var caller transport.Caller = client
	if serialize {
		caller = &serialBenchCaller{inner: client}
	}
	return hammerLookups(caller, window)
}

// hammerStoreReads measures the raw store read path: GOMAXPROCS
// workers doing Get + Snapshot + SampleInto against a seeded store.
// With rlock set, every read additionally takes a shared
// sync.RWMutex read lock — the pre-epoch read architecture, measured
// live so the comparison holds on any machine.
func hammerStoreReads(rlock bool, window time.Duration) (lockStats, error) {
	s := store.New()
	cfg := wire.Config{Scheme: wire.FullReplication}
	for k := 0; k < nodeBenchKeys; k++ {
		ks := s.GetOrCreate(nodeBenchKey(k), cfg)
		ks.Update(func(st *store.State) {
			for i := 0; i < nodeBenchEntries; i++ {
				st.Set.Add(entry.Entry(fmt.Sprintf("v%d", i+1)))
			}
		})
		ks.Snapshot() // latch snapshot demand so reads stay lock-free
	}

	var rw sync.RWMutex
	workers := runtime.GOMAXPROCS(0)
	deadline := time.Now().Add(window)
	lats := make([][]time.Duration, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(w + 1))
			sc := new(entry.SampleScratch)
			k := w
			for time.Now().Before(deadline) {
				start := time.Now()
				if rlock {
					rw.RLock()
				}
				ks, ok := s.Get(nodeBenchKey(k % nodeBenchKeys))
				if !ok {
					if rlock {
						rw.RUnlock()
					}
					errs[w] = fmt.Errorf("core-bench store: key %d missing", k%nodeBenchKeys)
					return
				}
				sample := ks.Snapshot().SampleInto(rng, nodeBenchT, sc)
				if rlock {
					rw.RUnlock()
				}
				lats[w] = append(lats[w], time.Since(start))
				if len(sample) != nodeBenchT {
					errs[w] = fmt.Errorf("core-bench store: sampled %d entries, want %d", len(sample), nodeBenchT)
					return
				}
				k++
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return lockStats{}, err
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return lockStats{}, fmt.Errorf("core-bench window too short: no store reads completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Microsecond)
	}
	return lockStats{
		Ops:       int64(len(all)),
		OpsPerSec: float64(len(all)) / window.Seconds(),
		P50Micros: pct(0.50),
		P99Micros: pct(0.99),
	}, nil
}

// measureCodecAllocs records allocations per operation for the hot
// wire kinds on the append-encode path, plus wire.Encode for scale.
// The buffer is reused the way the transport reuses its frame buffers.
func measureCodecAllocs() coreAllocStats {
	// Pre-boxed as wire.Message the way the transport hands messages to
	// the codec; boxing inside the measured closure would charge the
	// interface conversion to the encoder.
	var lk wire.Message = wire.Lookup{Key: "core-bench-key", T: nodeBenchT}
	entries := make([]string, 16)
	for i := range entries {
		entries[i] = fmt.Sprintf("core-bench-entry-%02d", i)
	}
	var lr wire.Message = wire.LookupReply{Entries: entries}

	buf := make([]byte, 0, 4096)
	return coreAllocStats{
		LookupAppendEncode: testing.AllocsPerRun(200, func() {
			buf = wire.AppendEncode(buf[:0], lk)
		}),
		ReplyAppendEncode: testing.AllocsPerRun(200, func() {
			buf = wire.AppendEncode(buf[:0], lr)
		}),
		GenericEncode: testing.AllocsPerRun(200, func() {
			_ = wire.Encode(lr)
		}),
	}
}

// runCoreBench executes the sweep plus the per-layer toggles and
// writes the JSON report to path.
func runCoreBench(path string, window time.Duration) error {
	report := coreBenchReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Keys:          nodeBenchKeys,
		EntriesPerKey: nodeBenchEntries,
		LookupT:       nodeBenchT,
		WindowSec:     window.Seconds(),
		MuxConns:      transport.DefaultMuxConns,
		Note: "scaling_max_over_1 and the layer ratios are meaningful only when " +
			"num_cpu covers the swept GOMAXPROCS: on fewer hardware threads the " +
			"extra workers share cores and every arm is expected to tie, since " +
			"lock-free reads and pipelining only pay when another core could " +
			"have run. Compare like-for-like num_cpu when reading trajectories.",
	}

	addr, cleanup, err := newCoreBenchServer()
	if err != nil {
		return err
	}
	defer cleanup()

	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	for _, procs := range coreBenchProcs {
		runtime.GOMAXPROCS(procs)
		st, err := hammerTCP(addr, false, window)
		if err != nil {
			return fmt.Errorf("core-bench sweep at GOMAXPROCS=%d: %w", procs, err)
		}
		report.Scaling = append(report.Scaling, coreScalePoint{GOMAXPROCS: procs, lockStats: st})
	}
	top := report.Scaling[len(report.Scaling)-1]
	report.ScalingMaxOver1 = top.OpsPerSec / report.Scaling[0].OpsPerSec

	// Layer toggles at the top of the sweep. The mux arm is the top
	// scaling point (same configuration, no need to re-measure).
	runtime.GOMAXPROCS(coreBenchProcs[len(coreBenchProcs)-1])
	report.TransportMux = top.lockStats
	report.TransportSerialized, err = hammerTCP(addr, true, window)
	if err != nil {
		return fmt.Errorf("core-bench serialized transport: %w", err)
	}
	report.MuxOverSerialized = report.TransportMux.OpsPerSec / report.TransportSerialized.OpsPerSec

	report.StoreEpoch, err = hammerStoreReads(false, window)
	if err != nil {
		return fmt.Errorf("core-bench epoch store: %w", err)
	}
	report.StoreRLock, err = hammerStoreReads(true, window)
	if err != nil {
		return fmt.Errorf("core-bench rlock store: %w", err)
	}
	report.EpochOverRLock = report.StoreEpoch.OpsPerSec / report.StoreRLock.OpsPerSec

	runtime.GOMAXPROCS(orig)
	report.CodecAllocs = measureCodecAllocs()

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write -core-bench file: %w", err)
	}
	fmt.Fprintf(os.Stderr, "[wrote %s]\n", path)
	fmt.Printf("core bench: full stack %.0f -> %.0f ops/s over GOMAXPROCS %d->%d (%.2fx, num_cpu=%d); mux/serialized %.2fx, epoch/rlock %.2fx; reply encode %.1f allocs\n",
		report.Scaling[0].OpsPerSec, top.OpsPerSec,
		coreBenchProcs[0], coreBenchProcs[len(coreBenchProcs)-1],
		report.ScalingMaxOver1, report.NumCPU,
		report.MuxOverSerialized, report.EpochOverRLock,
		report.CodecAllocs.ReplyAppendEncode)
	return nil
}
