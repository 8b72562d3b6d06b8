// Command perfbench is the repository's end-to-end benchmark: a
// 10-daemon loopback TCP cluster driven through core.Service (and
// plsproxy) by closed-loop callers, with every answer checked. See
// README.md in this directory for the metrics, workloads and how to
// run an A/B comparison.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// workload is one traffic mix against one key population.
type workload struct {
	mix   mix
	proxy bool // through an in-process plsproxy, all keys Round-Robin-2
}

var workloads = map[string]workload{
	"lookup-mix": {mix: mix{lookup: 1}},
	"churn":      {mix: mix{lookup: 0.5, addShare: 0.5, owned: true}},
	"proxy-zipf": {mix: mix{lookup: 0.95, addShare: 0.5, zipfS: 1.1}, proxy: true},
}

// updateProbe is the update stream lookup-mix times after its lookup
// window, so that every workload reports update latency; its callers
// add and then delete one fresh entry at a time on their own keys.
var updateProbe = mix{pairs: true, owned: true}

// Op-stream identifiers: the same seed gives each stream its own
// sequence.
const (
	streamWindow = 1
	streamProbe  = 2
)

const (
	setupRuns     = 3 // set-ups per untraced run; setup_s is their median
	warmup        = time.Second
	probeUpdates  = 6000 // updates in lookup-mix's update probe
	spanLimit     = 800_000
	proxyCacheDiv = 8    // the proxy caches 1/8 of the key population
	maxWindows    = 2    // timed windows an untraced run may measure
	stealLimit    = 0.05 // a window with more stolen CPU time is measured again
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "lookup-mix", "workload: lookup-mix, churn or proxy-zipf")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; equal seeds give equal op streams")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report the per-layer split from a traced run instead of the end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root; data directories go under <root>/.bench_build")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// record is the run's context, printed before the result line.
type record struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Trace       bool                 `json:"trace"`
	NumCPU      int                  `json:"nproc"`
	GOMAXPROCS  int                  `json:"gomaxprocs"`
	GoVersion   string               `json:"go_version"`
	Callers     int                  `json:"callers"`
	SetupS      []float64            `json:"setup_runs_s"`
	Gate        gateResult           `json:"gate"`
	WarmupS     float64              `json:"warmup_discarded_s"`
	WarmupOps   int64                `json:"warmup_discarded_ops"`
	WindowS     float64              `json:"window_s"`
	WindowOps   int64                `json:"window_ops"`
	WindowSteal []float64            `json:"window_steal_fracs"`
	CPUPerOpUS  float64              `json:"window_cpu_us_per_op"`
	ProbeOps    int64                `json:"update_probe_ops,omitempty"`
	TracedS     float64              `json:"traced_window_s,omitempty"`
	TracedOps   int64                `json:"traced_window_ops,omitempty"`
	Spans       int                  `json:"spans,omitempty"`
	Samples     map[string]int       `json:"samples"`
	Refused     []string             `json:"refused_percentiles,omitempty"`
	Pooled      []string             `json:"pooled_percentiles,omitempty"`
	Slices      map[string][]float64 `json:"slice_values,omitempty"`
	Tails       map[string]metric    `json:"unbounded_tails,omitempty"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	callers := runtime.NumCPU()
	runtime.GOMAXPROCS(callers)
	rec := record{Workload: o.workload, Seed: o.seed, Trace: o.trace, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Callers: callers}

	schemes := directSchemes(o.seed)
	if w.proxy {
		schemes = []scheme{proxyScheme}
	}
	pop := newPopulation(schemes, o.seed)
	dir, err := workDir(o.root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	setups := setupRuns
	if o.trace {
		tr = newTracer(pop, spanLimit)
		setups = 1
	}
	var c *cluster
	for i := 0; i < setups; i++ {
		if c != nil {
			if err := c.close(); err != nil {
				return fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		var d time.Duration
		c, d, err = setUp(dir, pop, o.seed, w.proxy, tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rec.SetupS = append(rec.SetupS, d.Seconds())
	}
	defer c.close()

	chk := newChecker(pop)
	if rec.Gate, err = gate(c, pop, chk); err != nil {
		return err
	}
	// The heap after set-up; the forced GC also keeps set-up garbage
	// out of the timed window.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	tg := &target{pop: pop, svc: c.svc}
	if w.proxy {
		tg.px, tg.pxCfg = c.pxConn, proxyScheme.cfg
		if tr != nil {
			tg.px = tr.caller(c.pxConn, originClient, func(int) int16 { return endpointProxy })
		}
	}
	gens := make([]*generator, callers)
	for i := range gens {
		gens[i] = newGenerator(w.mix, o.seed, streamWindow, i, callers, len(pop.keys))
	}
	warm := tg.window(gens, chk, warmup, 0, nil)
	rec.WarmupS, rec.WarmupOps = warm.elapsed.Seconds(), warm.ops
	attempted, failed := warm.ops, warm.failed

	// A traced run splits its time between an untraced and a traced
	// window of equal length; trace.overhead_frac compares the two.
	length := time.Duration(o.seconds) * time.Second
	tries := maxWindows
	if o.trace {
		length /= 2
		tries = 1
	}
	// A window during which the hypervisor stole CPU time from the
	// machine measures the neighbours, not the program: measure again,
	// up to maxWindows times, and keep the least-stolen window.
	var win tally
	var before, after counters
	for i := 0; i < tries; i++ {
		b := takeCounters(c)
		wv := tg.window(gens, chk, length, 0, nil)
		a := takeCounters(c)
		attempted, failed = attempted+wv.ops, failed+wv.failed
		steal := stealFrac(b, a)
		rec.WindowSteal = append(rec.WindowSteal, steal)
		if i == 0 || steal < stealFrac(before, after) {
			win, before, after = wv, b, a
		}
		if steal <= stealLimit {
			break
		}
	}
	rec.WindowS, rec.WindowOps = win.elapsed.Seconds(), win.ops
	rec.CPUPerOpUS = float64(after.cpu-before.cpu) / float64(max(win.ops, 1)) / 1e3

	updates, updSpan := win.updates, length
	if w.mix.lookup == 1 {
		pg := make([]*generator, callers)
		for i := range pg {
			pg[i] = newGenerator(updateProbe, o.seed, streamProbe, i, callers, len(pop.keys))
		}
		probe := tg.window(pg, chk, 0, probeUpdates/callers, nil)
		attempted, failed = attempted+probe.ops, failed+probe.failed
		rec.ProbeOps = probe.ops
		updates, updSpan = probe.updates, probe.elapsed
	}

	var m *metricSet
	if !o.trace {
		servers := float64(win.contacted)
		if w.proxy {
			servers = float64(after.backendProbes - before.backendProbes)
		}
		m = e2eMetricSet(win, length, servers, rec.CPUPerOpUS, float64(c.entryCount())/float64(chk.live()), heapMB, rec.SetupS)
		if len(m.refused) > 0 {
			return fmt.Errorf("too few lookups for lookup_p50_us: %d", len(win.lookups))
		}
		// Throughput and the latency tails are too noisy on a shared
		// host to gate; untraced runs keep them in the record.
		u := newMetricSet()
		tails(u, win, length, updates, updSpan)
		rec.Tails = u.vals
		maps.Copy(m.samples, u.samples)
		maps.Copy(m.perPart, u.perPart)
		m.pooled = append(m.pooled, u.pooled...)
		m.refused = append(m.refused, u.refused...)
	} else {
		tr.on.Store(true)
		tw := tg.window(gens, chk, length, 0, tr)
		lmAfter := takeCounters(c)
		spans := tr.take()
		attempted, failed = attempted+tw.ops, failed+tw.failed
		rec.TracedS, rec.TracedOps, rec.Spans = tw.elapsed.Seconds(), tw.ops, len(spans)

		m = layerMetricSet(buildTree(spans), pop, w.proxy, before, after, win, tw,
			lmAfter.backendLookups-after.backendLookups)
		tails(m, win, length, updates, updSpan)
		m.ratio("failed_frac", "ratio", float64(failed), float64(attempted))
	}
	rec.Samples, rec.Refused, rec.Pooled, rec.Slices = m.samples, m.refused, m.pooled, m.perPart

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m.vals})
}

// e2eMetricSet assembles the end-to-end metrics of an untraced run from
// its window and the values measured around it. servers is the probes
// the window's lookups sent into the cluster; cpuPerOp is the process
// CPU time per op over the window, in microseconds.
func e2eMetricSet(win tally, span time.Duration, servers, cpuPerOp, copies, heapMB float64, setups []float64) *metricSet {
	m := newMetricSet()
	m.set("cpu_us_per_op", "us", cpuPerOp)
	m.slicedPctUS("lookup_p50_us", win.lookups, span, 0.50)
	m.ratio("servers_per_lookup", "count", servers, float64(len(win.lookups)))
	m.set("copies_per_entry", "count", copies)
	m.set("heap_mb", "MiB", heapMB)
	m.set("setup_s", "s", median(slices.Clone(setups)))
	return m
}

// tails sets the wall-clock metrics whose run-to-run spread on a shared
// host is too wide to gate: throughput, the lookup p99, and the update
// median and p99 (from the window, or from lookup-mix's update probe).
func tails(m *metricSet, win tally, span time.Duration, updates []sample, updSpan time.Duration) {
	m.slicedRate("ops_per_s", append(slices.Clone(win.lookups), win.updates...), span, win.elapsed)
	m.slicedPctUS("lookup_p99_us", win.lookups, span, 0.99)
	m.slicedPctUS("update_p50_us", updates, updSpan, 0.50)
	m.slicedPctUS("update_p99_us", updates, updSpan, 0.99)
}

// stealFrac is the share of the machine's CPU time the hypervisor stole
// between two snapshots.
func stealFrac(a, b counters) float64 {
	if t := b.ticks - a.ticks; t > 0 {
		return float64(b.steal-a.steal) / float64(t)
	}
	return 0
}

// counters is a snapshot of the program's own telemetry and of the
// process, taken at a window's edges.
type counters struct {
	selHits, selMisses, selInval    int64
	walRecords, walBytes, walFsyncs int64
	fsync                           telemetry.HistogramSnapshot
	pxLookups, pxHits, pxCoalesced  int64
	pxInval, pxUpdates, pxStale     int64
	backendLookups, backendProbes   int64
	cpu                             time.Duration
	gcCPU, totalCPU                 float64
	alloc                           uint64
	steal, ticks                    int64 // machine CPU ticks stolen, and in all
	at                              time.Time
}

func takeCounters(c *cluster) counters {
	var k counters
	sel := c.clSel
	if c.px != nil {
		sel = c.px.sm
		k.pxLookups = c.px.pm.Lookups.Value()
		k.pxHits = c.px.pm.CacheHits.Value()
		k.pxCoalesced = c.px.pm.Coalesced.Value()
		k.pxInval = c.px.pm.Invalidations.Value()
		k.pxUpdates = c.px.pm.Updates.Value()
		k.pxStale = c.px.pm.StaleFills.Value()
		k.backendLookups = c.px.lm.Lookups.Value()
		k.backendProbes = c.px.lm.Probes.Sum()
	}
	k.selHits, k.selMisses, k.selInval = sel.CacheHits.Value(), sel.CacheMisses.Value(), sel.Invalidations.Value()
	k.walRecords, k.walBytes, k.walFsyncs = c.wal.Records.Value(), c.wal.Bytes.Value(), c.wal.Fsyncs.Value()
	k.fsync = c.walReg.Snapshot().Histograms["wal.fsync_latency"]

	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		k.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		k.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		k.totalCPU = samples[1].Value.Float64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k.alloc = ms.TotalAlloc
	k.steal, k.ticks = cpuTicks()
	k.at = time.Now()
	return k
}

// cpuTicks reads the machine's stolen and total CPU ticks from
// /proc/stat: time the hypervisor gave this machine's CPUs to someone
// else. It returns zeros where /proc/stat is unavailable.
func cpuTicks() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// layerMetricSet assembles the per-layer metrics of a traced run: the
// span split of the traced window tw, the program's counters over the
// untraced window win (between snapshots a and b), and the tracing
// overhead. The caller adds failed_frac, which counts every op of the
// run.
func layerMetricSet(t *spanTree, pop *population, proxyMode bool, a, b counters, win, tw tally, backendLookups int64) *metricSet {
	m := newMetricSet()
	layerMetrics(m, t, pop, proxyMode, backendLookups)
	counterMetrics(m, a, b, win)
	if win.ops > 0 && tw.ops > 0 {
		untraced := float64(win.ops) / win.elapsed.Seconds()
		traced := float64(tw.ops) / tw.elapsed.Seconds()
		m.set("trace.overhead_frac", "ratio", 1-traced/untraced)
	} else {
		m.set("trace.overhead_frac", "ratio", 0)
	}
	return m
}

// counterMetrics sets the per-layer metrics that come from the
// program's telemetry and the process over the untraced window.
func counterMetrics(m *metricSet, a, b counters, win tally) {
	updates := float64(len(win.updates))
	hits, misses := float64(b.selHits-a.selHits), float64(b.selMisses-a.selMisses)
	m.ratio("selector.route_hit_frac", "ratio", hits, hits+misses)
	m.ratio("selector.invalidations_per_update", "count", float64(b.selInval-a.selInval), updates)

	m.set("wal.records", "count", float64(b.walRecords-a.walRecords))
	m.ratio("wal.records_per_update", "count", float64(b.walRecords-a.walRecords), updates)
	m.ratio("wal.bytes_per_update", "B", float64(b.walBytes-a.walBytes), updates)
	m.ratio("wal.updates_per_fsync", "count", updates, float64(b.walFsyncs-a.walFsyncs))
	m.set("wal.fsync_us.p50", "us", histQuantile(a.fsync, b.fsync, 0.5)/1e3)

	lookups := float64(b.pxLookups - a.pxLookups)
	m.ratio("proxy.hit_frac", "ratio", float64(b.pxHits-a.pxHits), lookups)
	m.ratio("proxy.coalesced_frac", "ratio", float64(b.pxCoalesced-a.pxCoalesced), lookups)
	m.ratio("proxy.invalidations_per_update", "count", float64(b.pxInval-a.pxInval), float64(b.pxUpdates-a.pxUpdates))
	m.set("proxy.stale_fills", "count", float64(b.pxStale-a.pxStale))

	wall := b.at.Sub(a.at).Seconds()
	m.ratio("process.cpu_busy_frac", "ratio", (b.cpu - a.cpu).Seconds(), wall*float64(runtime.GOMAXPROCS(0)))
	m.ratio("process.gc_cpu_frac", "ratio", b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	m.ratio("process.alloc_bytes_per_op", "B", float64(b.alloc-a.alloc), float64(win.ops))
}

// histQuantile estimates the q-quantile of the observations a
// histogram gained between snapshots a and b, interpolating linearly
// inside the bucket that holds it. 0 when nothing was observed.
func histQuantile(a, b telemetry.HistogramSnapshot, q float64) float64 {
	prev := make(map[int64]int64, len(a.Buckets))
	for _, bk := range a.Buckets {
		prev[bk.UpperBound] = bk.Count
	}
	n := b.Count - a.Count
	if n <= 0 {
		return 0
	}
	want := q * float64(n)
	var seen float64
	for _, bk := range b.Buckets {
		c := float64(bk.Count - prev[bk.UpperBound])
		if c <= 0 || seen+c < want {
			seen += c
			continue
		}
		lo := 0.0
		for _, bound := range telemetry.DefaultLatencyBuckets {
			if bound >= bk.UpperBound && bk.UpperBound >= 0 {
				break
			}
			lo = float64(bound)
		}
		if bk.UpperBound < 0 {
			return lo // the overflow bucket has no upper edge
		}
		return lo + (float64(bk.UpperBound)-lo)*(want-seen)/c
	}
	return 0
}
