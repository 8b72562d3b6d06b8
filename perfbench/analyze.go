package main

import (
	"slices"

	"repro/internal/wire"
)

// nodeKinds are the node message kinds whose handle and self times the
// traced run reports.
var nodeKinds = []struct {
	name string
	kind wire.Kind
}{
	{"lookup", wire.KindLookup},
	{"add", wire.KindAdd},
	{"delete", wire.KindDelete},
	{"store_one", wire.KindStoreOne},
	{"remove_one", wire.KindRemoveOne},
	{"migrate", wire.KindMigrate},
	{"round_remove", wire.KindRoundRemove},
}

// spanTree is the traced window's spans linked into trees: calls to the
// op or handle that issued them (through the ctx), handles to the call
// that carried them (matched on endpoint, key, message and interval).
type spanTree struct {
	spans   []span
	parent  []int32 // index of the parent span, -1 for roots and orphans
	kidsAt  []int32 // children of i are kids[kidsAt[i]:kidsAt[i+1]]
	kids    []int32
	self    []int64
	matched int // calls whose handle was found
	calls   int
}

func buildTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, parent: make([]int32, len(spans))}
	var maxID uint64
	for i := range spans {
		t.parent[i] = -1
		maxID = max(maxID, spans[i].id)
	}
	pos := make([]int32, maxID+1)
	for i := range pos {
		pos[i] = -1
	}
	for i := range spans {
		pos[spans[i].id] = int32(i)
	}

	// Calls know their parent from the ctx.
	type matchKey struct {
		at  int16
		key int32
		msg wire.Kind
	}
	handles := make(map[matchKey][]int32)
	for i, s := range spans {
		switch s.kind {
		case spanCall:
			t.calls++
			if s.parent != 0 && s.parent <= maxID {
				t.parent[i] = pos[s.parent]
			}
		case spanHandle:
			k := matchKey{s.at, s.key, s.msg}
			handles[k] = append(handles[k], int32(i))
		}
	}
	// A handle belongs to the call to the same endpoint, key and message
	// whose interval contains it.
	for _, hs := range handles {
		slices.SortFunc(hs, func(a, b int32) int { return cmpInt64(spans[a].start, spans[b].start) })
	}
	for i, s := range spans {
		if s.kind != spanCall {
			continue
		}
		hs := handles[matchKey{s.at, s.key, s.msg}]
		j, _ := slices.BinarySearchFunc(hs, s.start, func(h int32, start int64) int { return cmpInt64(spans[h].start, start) })
		for ; j < len(hs) && spans[hs[j]].start <= s.end; j++ {
			h := hs[j]
			if t.parent[h] == -1 && spans[h].end <= s.end {
				t.parent[h] = int32(i)
				t.matched++
				break
			}
		}
	}

	// Children in compressed rows.
	t.kidsAt = make([]int32, len(spans)+1)
	for _, p := range t.parent {
		if p >= 0 {
			t.kidsAt[p+1]++
		}
	}
	for i := 1; i < len(t.kidsAt); i++ {
		t.kidsAt[i] += t.kidsAt[i-1]
	}
	t.kids = make([]int32, t.kidsAt[len(spans)])
	fill := slices.Clone(t.kidsAt[:len(spans)])
	for i, p := range t.parent {
		if p >= 0 {
			t.kids[fill[p]] = int32(i)
			fill[p]++
		}
	}

	// Self time: a child call covers its interval plus the time the
	// wrapper spent after it (tracing cost, not the parent's work).
	t.self = make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, k := range t.children(i) {
			c := spans[k]
			iv = append(iv, [2]int64{c.start, c.end + int64(c.post)})
		}
		t.self[i] = selfTime(s.start, s.end, iv)
	}
	return t
}

func (t *spanTree) children(i int) []int32 { return t.kids[t.kidsAt[i]:t.kidsAt[i+1]] }

func (t *spanTree) dur(i int) int64 { return t.spans[i].end - t.spans[i].start }

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func isUpdate(k wire.Kind) bool { return k == wire.KindAdd || k == wire.KindDelete }

// clusterEntry reports whether a call enters the cluster from the
// client side: from the direct client or the proxy's backend service
// to a node.
func clusterEntry(s span) bool {
	return s.kind == spanCall && s.at < endpointProxy && s.origin < 0
}

// layerMetrics computes the span-derived per-layer metrics of a traced
// window. backendLookups is the proxy service's lookup count in the
// window (proxy workload only), the denominator of its probe counts.
func layerMetrics(m *metricSet, t *spanTree, pop *population, proxyMode bool, backendLookups int64) {
	spans := t.spans
	var (
		lookups, updates     int
		coreSelf, probeDur   []int64
		probeSelf, peerDur   []int64
		proxyDur             []int64
		byScheme             = make([][]int64, len(pop.schemes))
		schemeOps            = make([]float64, len(pop.schemes))
		schemeProbes         = make([]float64, len(pop.schemes))
		usefulN, usefulYes   int
		bytesN, bytesSum     int64
		peerCalls, backendLk int
		handleDur            = make(map[wire.Kind][]int64)
		handleSelf           = make(map[wire.Kind][]int64)
		split                [5]int64 // core, transport, server, fanout, tracer
		opTotal              int64
	)
	for i, s := range spans {
		switch s.kind {
		case spanOp:
			opTotal += t.dur(i)
			split[0] += t.self[i]
			for _, c := range t.children(i) {
				split[1] += t.self[c]
				split[4] += int64(spans[c].post)
				for _, h := range t.children(int(c)) {
					split[2] += t.self[h]
					split[3] += t.dur(int(h)) - t.self[h]
				}
			}
			if isUpdate(s.msg) {
				updates++
				continue
			}
			lookups++
			coreSelf = append(coreSelf, t.self[i])
			if s.key >= 0 {
				sc := pop.scheme[s.key]
				byScheme[sc] = append(byScheme[sc], t.dur(i))
				if !proxyMode {
					schemeOps[sc]++
					for _, c := range t.children(i) {
						if spans[c].msg == wire.KindLookup {
							schemeProbes[sc]++
						}
					}
				}
			}
		case spanCall:
			if s.origin >= 0 {
				peerCalls++
				peerDur = append(peerDur, t.dur(i))
				continue
			}
			if !clusterEntry(s) {
				continue
			}
			probeDur = append(probeDur, t.dur(i))
			if len(t.children(i)) > 0 {
				probeSelf = append(probeSelf, t.self[i])
			}
			if s.msg == wire.KindLookup {
				if s.useful >= 0 {
					usefulN++
					if s.useful == 1 {
						usefulYes++
					}
				}
				bytesN++
				bytesSum += int64(s.bytes)
				if s.origin == originProxy {
					backendLk++
					if s.key >= 0 {
						schemeProbes[pop.scheme[s.key]]++
					}
				}
			}
		case spanHandle:
			if s.at == endpointProxy {
				proxyDur = append(proxyDur, t.dur(i))
				continue
			}
			handleDur[s.msg] = append(handleDur[s.msg], t.dur(i))
			handleSelf[s.msg] = append(handleSelf[s.msg], t.self[i])
		}
	}
	if proxyMode && len(pop.schemes) == 1 {
		// Every key has the proxy's one scheme.
		schemeOps[0] = float64(backendLookups)
	}

	m.pctUS("core.self_us.p50", coreSelf, 0.50)
	m.pctUS("core.self_us.p99", coreSelf, 0.99)
	var allProbes, allOps float64
	for _, s := range directSchemes(0) {
		tag := s.tag
		sc := schemeIndex(pop, tag)
		var d []int64
		var probes, ops float64
		if sc >= 0 {
			d, probes, ops = byScheme[sc], schemeProbes[sc], schemeOps[sc]
		}
		allProbes += probes
		allOps += ops
		m.pctUS("core.lookup_us."+tag+".p50", d, 0.50)
		m.ratio("strategy.probes_per_lookup."+tag, "count", probes, ops)
	}
	m.ratio("strategy.probes_per_lookup", "count", allProbes, allOps)
	m.ratio("strategy.useful_probe_frac", "ratio", float64(usefulYes), float64(usefulN))

	m.pctUS("transport.probe_us.p50", probeDur, 0.50)
	m.pctUS("transport.probe_us.p99", probeDur, 0.99)
	m.pctUS("transport.self_us.p50", probeSelf, 0.50)
	m.pctUS("transport.self_us.p99", probeSelf, 0.99)
	m.ratio("transport.calls_per_op", "count", float64(t.calls), float64(lookups+updates))
	m.ratio("wire.bytes_per_probe", "B", float64(bytesSum), float64(bytesN))

	for _, k := range nodeKinds {
		m.pctUS("node.handle_us."+k.name+".p50", handleDur[k.kind], 0.50)
		m.pctUS("node.handle_us."+k.name+".p99", handleDur[k.kind], 0.99)
		m.pctUS("node.self_us."+k.name+".p50", handleSelf[k.kind], 0.50)
	}
	m.ratio("node.peer_calls_per_update", "count", float64(peerCalls), float64(updates))
	m.pctUS("node.peer_us.p50", peerDur, 0.50)
	m.pctUS("node.peer_us.p99", peerDur, 0.99)

	m.pctUS("proxy.handle_us.p50", proxyDur, 0.50)
	m.pctUS("proxy.handle_us.p99", proxyDur, 0.99)
	if proxyMode {
		m.ratio("proxy.backend_probes_per_lookup", "count", float64(backendLk), float64(lookups))
	} else {
		m.set("proxy.backend_probes_per_lookup", "count", 0)
	}

	m.ratio("trace.matched_frac", "ratio", float64(t.matched), float64(t.calls))
	names := []string{"split.core_frac", "split.transport_frac", "split.server_frac", "split.fanout_frac", "split.tracer_frac"}
	for i, name := range names {
		m.ratio(name, "ratio", float64(split[i]), float64(opTotal))
	}
}

func schemeIndex(pop *population, tag string) int {
	for i, s := range pop.schemes {
		if s.tag == tag {
			return i
		}
	}
	return -1
}
