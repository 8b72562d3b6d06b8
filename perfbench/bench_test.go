package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

func streamPrefix(m mix, seed uint64, callers, n int) [][]op {
	out := make([][]op, callers)
	for c := range out {
		g := newGenerator(m, seed, streamWindow, c, callers, numKeys)
		for i := 0; i < n; i++ {
			out[c] = append(out[c], g.next())
		}
	}
	return out
}

func TestOpStreamsFollowTheSeed(t *testing.T) {
	mixes := map[string]mix{"update-probe": updateProbe}
	for name, w := range workloads {
		mixes[name] = w.mix
	}
	for name, m := range mixes {
		a := streamPrefix(m, 7, 2, 5000)
		if b := streamPrefix(m, 7, 2, 5000); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different op streams", name)
		}
		if c := streamPrefix(m, 8, 2, 5000); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
		if reflect.DeepEqual(a[0], a[1]) {
			t.Errorf("%s: both callers got the same op stream", name)
		}
	}
}

func TestChurnCallersOwnDisjointKeys(t *testing.T) {
	owner := map[int]int{}
	for c, ops := range streamPrefix(workloads["churn"].mix, 3, 3, 3000) {
		for _, o := range ops {
			if prev, ok := owner[o.key]; ok && prev != c {
				t.Fatalf("key %d used by callers %d and %d", o.key, prev, c)
			}
			owner[o.key] = c
		}
	}
}

func TestStreamDeletesOnlyOwnLiveAdds(t *testing.T) {
	for _, m := range []mix{workloads["churn"].mix, workloads["proxy-zipf"].mix, updateProbe} {
		g := newGenerator(m, 11, streamWindow, 1, 2, numKeys)
		live := map[string]bool{}
		for i := 0; i < 20000; i++ {
			o := g.next()
			switch o.kind {
			case opAdd:
				live[o.entry] = true
			case opDelete:
				if !live[o.entry] {
					t.Fatalf("op %d deletes %q, which the stream never added or already deleted", i, o.entry)
				}
				delete(live, o.entry)
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly ten samples beyond
		{999, 0.99, 0, false},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %d, %v; want %d, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	kids := [][2]int64{
		{10, 30}, {20, 40}, // overlap: [10, 40] covers 30
		{50, 60},
		{55, 58},   // nested inside the previous one
		{90, 120},  // runs past the parent's end: 10 counted
		{-5, 5},    // starts before the parent: 5 counted
		{200, 300}, // outside the parent
	}
	if got := selfTime(0, 100, kids); got != 45 {
		t.Fatalf("selfTime = %d, want 45", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Fatalf("selfTime with no children = %d, want 100", got)
	}
}

func TestTreeSplitAddsUpToOpLatency(t *testing.T) {
	// op -> client call -> node handle -> peer call -> nested handle,
	// plus an unrelated handle on another key that must not match.
	spans := []span{
		{id: 1, start: 0, end: 100, kind: spanOp, msg: wire.KindAdd, key: 0},
		{id: 2, parent: 1, start: 10, end: 60, post: 5, kind: spanCall, origin: originClient, at: 3, msg: wire.KindAdd, key: 0},
		{id: 3, start: 20, end: 50, kind: spanHandle, at: 3, msg: wire.KindAdd, key: 0},
		{id: 4, parent: 3, start: 30, end: 40, kind: spanCall, origin: 3, at: 5, msg: wire.KindStoreOne, key: 0},
		{id: 5, start: 32, end: 38, kind: spanHandle, at: 5, msg: wire.KindStoreOne, key: 0},
		{id: 6, start: 21, end: 49, kind: spanHandle, at: 3, msg: wire.KindAdd, key: 1},
	}
	tr := buildTree(spans)
	if tr.matched != 2 || tr.calls != 2 {
		t.Fatalf("matched %d of %d calls, want 2 of 2", tr.matched, tr.calls)
	}
	wantSelf := []int64{45, 20, 20, 4, 6, 28}
	if !slices.Equal(tr.self, wantSelf) {
		t.Fatalf("self times %v, want %v", tr.self, wantSelf)
	}
	pop := newPopulation(directSchemes(1), 1)
	m := newMetricSet()
	layerMetrics(m, tr, pop, false, 0)
	sum := 0.0
	for _, name := range []string{"split.core_frac", "split.transport_frac", "split.server_frac", "split.fanout_frac", "split.tracer_frac"} {
		sum += m.vals[name].Value
	}
	if sum != 1 {
		t.Fatalf("split fractions sum to %g, want 1", sum)
	}
	if got := m.vals["split.fanout_frac"].Value; got != 0.1 {
		t.Fatalf("fanout share %g, want 0.1", got)
	}
}

// inprocCluster is four nodes over the in-process transport with the
// same seeds every time, optionally with the timing wrappers.
func inprocCluster(t *testing.T, tr *tracer) (*core.Service, transport.Caller, *transport.Inproc) {
	t.Helper()
	const n = 4
	ip := transport.NewInproc(n)
	rng := stats.NewRNG(9)
	for i := 0; i < n; i++ {
		nd := node.New(i, rng.Split())
		var h transport.Handler = nd
		var peers transport.Caller = ip
		if tr != nil {
			h = tr.handler(nd, endpointNode(i))
			peers = tr.caller(ip, i, endpointNode)
		}
		ip.Bind(i, h)
		nd.Attach(peers)
	}
	var c transport.Caller = ip
	if tr != nil {
		c = tr.caller(ip, originClient, endpointNode)
	}
	svc, err := core.NewService(c, core.WithSeed(4), core.WithDefaultConfig(core.Config{Scheme: core.RoundRobin, Y: 2}))
	if err != nil {
		t.Fatal(err)
	}
	return svc, c, ip
}

// exercise runs one fixed script of every operation kind, including
// calls to a down server, and returns everything it observed.
func exercise(t *testing.T, svc *core.Service, c transport.Caller, ip *transport.Inproc, tr *tracer) []string {
	t.Helper()
	var log []string
	note := func(v ...any) { log = append(log, fmt.Sprint(v...)) }
	ctx := context.Background()
	if tr != nil {
		ctx = context.WithValue(ctx, spanKey{}, &spanRef{id: tr.newID()})
	}
	var es []core.Entry
	for i := 0; i < 30; i++ {
		es = append(es, core.Entry(fmt.Sprintf("e%d", i)))
	}
	note(svc.Place(ctx, "k", es))
	for i := 0; i < 5; i++ {
		res, err := svc.PartialLookup(ctx, "k", 10)
		note(res, err)
		note(svc.Add(ctx, "k", core.Entry(fmt.Sprintf("new%d", i))))
		note(svc.Delete(ctx, "k", es[i]))
	}
	for s := 0; s < c.NumServers(); s++ {
		reply, err := c.Call(ctx, s, wire.Dump{Key: "k"})
		note(reply, err)
	}
	ip.SetDown(2, true)
	_, downErr := c.Call(ctx, 2, wire.Lookup{Key: "k", T: 5})
	if !errors.Is(downErr, transport.ErrServerDown) {
		t.Fatalf("down server: got %v, want ErrServerDown", downErr)
	}
	note(downErr)
	res, err := svc.PartialLookup(ctx, "k", 40)
	note(res, err)
	note(svc.Delete(ctx, "k", es[9]))
	return log
}

func TestWrappersPassRepliesAndErrorsThrough(t *testing.T) {
	svc, c, ip := inprocCluster(t, nil)
	want := exercise(t, svc, c, ip, nil)

	pop := &population{index: map[string]int{}}
	tr := newTracer(pop, 1<<16)
	tr.on.Store(true)
	wsvc, wc, wip := inprocCluster(t, tr)
	got := exercise(t, wsvc, wc, wip, tr)
	if !slices.Equal(got, want) {
		for i := range want {
			if i < len(got) && got[i] != want[i] {
				t.Errorf("step %d: wrapped %q, unwrapped %q", i, got[i], want[i])
			}
		}
		t.Fatalf("wrapped path diverged (%d vs %d steps)", len(got), len(want))
	}
	kinds := map[spanKind]int{}
	for _, s := range tr.take() {
		kinds[s.kind]++
	}
	if kinds[spanCall] == 0 || kinds[spanHandle] == 0 {
		t.Fatalf("wrappers recorded no spans: %v", kinds)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metric names and
// the benchmark's declaration in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, d := range decl.EndToEnd {
		e2e = append(e2e, d.Name)
	}
	win := tally{elapsed: time.Second}
	for i := 0; i < 100; i++ {
		win.lookups = append(win.lookups, sample{at: int64(i) * int64(time.Second) / 100, lat: 1000})
	}
	var printed []string
	for name := range e2eMetricSet(win, time.Second, 160, 120, 3.2, 45, []float64{5, 6, 7}).vals {
		printed = append(printed, name)
	}
	if !slices.Equal(sorted(e2e), sorted(printed)) {
		t.Errorf("end_to_end %v, benchmark prints %v", sorted(e2e), sorted(printed))
	}
	m := layerMetricSet(buildTree(nil), &population{}, false, counters{}, counters{}, tally{}, tally{}, 0)
	tails(m, tally{}, time.Second, nil, time.Second)
	m.ratio("failed_frac", "ratio", 0, 0)
	for _, d := range decl.PerLayer {
		v, ok := m.vals[d.Name]
		if !ok {
			t.Errorf("per_layer %s is not printed", d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("per_layer %s: unit %q, printed %q", d.Name, d.Unit, v.Unit)
		}
	}
	if len(m.vals) != len(decl.PerLayer) {
		t.Errorf("benchmark prints %d per-layer metrics, BENCHMARK.json declares %d", len(m.vals), len(decl.PerLayer))
	}
}

func sorted(s []string) []string {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}
