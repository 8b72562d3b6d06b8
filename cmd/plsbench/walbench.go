package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// WAL micro-benchmark (-wal-bench): measures acknowledged-mutation
// throughput on one node under each durability level — volatile (no
// WAL), fsync=never (write, no sync), fsync=batch (group commit), and
// fsync=always (durable before the key unlocks) — and writes the
// numbers as machine-readable JSON (BENCH_wal.json). The interesting ratios are
// batch and always against volatile: what durability costs, and how
// much of that cost group commit buys back.

const (
	// Workers is fixed, not GOMAXPROCS-derived: acked mutations are
	// IO-bound (the worker parks in WaitDurable, not on a core), and
	// group commit only shows its effect when several mutations are in
	// flight at once. Several workers share each key, the hot-key shape
	// group commit exists for.
	walBenchWorkers = 16
	walBenchKeys    = 4
	walBenchSeedSet = 8 // entries placed per key before measuring
)

type walArmStats struct {
	// Policy is "volatile", or a WAL sync policy name.
	Policy string `json:"policy"`
	// Ops is the number of acked mutations in the window.
	Ops int64 `json:"ops"`
	// OpsPerSec is sustained acked-mutation throughput.
	OpsPerSec float64 `json:"ops_per_sec"`
	// P50Micros / P99Micros are per-mutation ack latency percentiles.
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// VsVolatile is OpsPerSec relative to the volatile baseline (1.0 =
	// free durability; absent on the baseline itself).
	VsVolatile float64 `json:"vs_volatile,omitempty"`
}

type walBenchReport struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Workers    int     `json:"workers"`
	Keys       int     `json:"keys"`
	WindowSec  float64 `json:"window_sec"`
	// Volatile is the no-WAL baseline; Arms holds never/batch/always in
	// increasing durability order.
	Volatile walArmStats   `json:"volatile"`
	Arms     []walArmStats `json:"arms"`
}

// runWALArm builds one single-node cluster (durable under dir unless
// policy == "volatile"), then hammers it with acked Add mutations —
// one key per worker, unique entries — for the window.
func runWALArm(policy string, window time.Duration) (walArmStats, error) {
	nd := node.New(0, stats.NewRNG(1))
	var dur *node.Durability
	if policy != "volatile" {
		p, err := store.ParseSyncPolicy(policy)
		if err != nil {
			return walArmStats{}, err
		}
		dir, err := os.MkdirTemp("", "walbench-"+policy+"-")
		if err != nil {
			return walArmStats{}, err
		}
		defer os.RemoveAll(dir)
		dur, err = nd.OpenDurability(dir, p, 0, nil)
		if err != nil {
			return walArmStats{}, err
		}
		defer dur.Close()
	}
	tr := transport.NewInproc(1)
	nd.Attach(tr)
	tr.Bind(0, nd)
	ctx := context.Background()

	workers := walBenchWorkers
	cfg := wire.Config{Scheme: wire.FullReplication}
	for k := 0; k < walBenchKeys; k++ {
		entries := make([]string, walBenchSeedSet)
		for i := range entries {
			entries[i] = fmt.Sprintf("seed-%d", i)
		}
		reply, err := tr.Call(ctx, 0, wire.Place{Key: walBenchKey(k), Config: cfg, Entries: entries})
		if err != nil {
			return walArmStats{}, err
		}
		if ack, ok := reply.(wire.Ack); !ok || ack.Err != "" {
			return walArmStats{}, fmt.Errorf("wal-bench place: %#v", reply)
		}
	}

	deadline := time.Now().Add(window)
	lats := make([][]time.Duration, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := walBenchKey(w % walBenchKeys)
			for i := 0; time.Now().Before(deadline); i++ {
				start := time.Now()
				reply, err := tr.Call(ctx, 0, wire.Add{
					Key:    key,
					Config: cfg,
					Entry:  fmt.Sprintf("w%d-e%d", w, i),
				})
				lats[w] = append(lats[w], time.Since(start))
				if err != nil {
					errs[w] = err
					return
				}
				if ack, ok := reply.(wire.Ack); !ok || ack.Err != "" {
					errs[w] = fmt.Errorf("add reply: %#v", reply)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return walArmStats{}, err
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return walArmStats{}, fmt.Errorf("wal-bench window too short: no mutations completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Microsecond)
	}
	return walArmStats{
		Policy:    policy,
		Ops:       int64(len(all)),
		OpsPerSec: float64(len(all)) / window.Seconds(),
		P50Micros: pct(0.50),
		P99Micros: pct(0.99),
	}, nil
}

func walBenchKey(k int) string { return fmt.Sprintf("wal-k%d", k) }

// runWALBench executes all four arms and writes the JSON report to path.
func runWALBench(path string, window time.Duration) error {
	report := walBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    walBenchWorkers,
		Keys:       walBenchKeys,
		WindowSec:  window.Seconds(),
	}
	var err error
	report.Volatile, err = runWALArm("volatile", window)
	if err != nil {
		return fmt.Errorf("wal-bench volatile: %w", err)
	}
	for _, policy := range []string{"never", "batch", "always"} {
		arm, err := runWALArm(policy, window)
		if err != nil {
			return fmt.Errorf("wal-bench %s: %w", policy, err)
		}
		arm.VsVolatile = arm.OpsPerSec / report.Volatile.OpsPerSec
		report.Arms = append(report.Arms, arm)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write -wal-bench file: %w", err)
	}
	fmt.Fprintf(os.Stderr, "[wrote %s]\n", path)
	fmt.Printf("wal bench: volatile %.0f ops/s (p99 %.0fus)", report.Volatile.OpsPerSec, report.Volatile.P99Micros)
	for _, arm := range report.Arms {
		fmt.Printf("; fsync=%s %.0f ops/s (p99 %.0fus, %.2fx volatile)", arm.Policy, arm.OpsPerSec, arm.P99Micros, arm.VsVolatile)
	}
	fmt.Println()
	return nil
}
