package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted. It refuses
// (ok false) when fewer than minBeyond samples lie beyond it, because
// such a tail is a handful of outliers, not a percentile.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// covered returns how much of [start, end] the intervals iv cover,
// counting overlapping intervals once. It sorts iv in place.
func covered(start, end int64, iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	cur := start // everything before cur is already counted
	for _, x := range iv {
		lo, hi := max(x[0], cur), min(x[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(start, end int64, children [][2]int64) int64 {
	return end - start - covered(start, end, children)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics and, for every percentile, the
// sample count behind it.
type metricSet struct {
	vals    map[string]metric
	samples map[string]int
	refused []string
	pooled  []string
	perPart map[string][]float64 // per-slice values behind sliced metrics
}

func newMetricSet() *metricSet {
	return &metricSet{vals: make(map[string]metric), samples: make(map[string]int), perPart: make(map[string][]float64)}
}

func (m *metricSet) set(name, unit string, v float64) {
	m.vals[name] = metric{Value: v, Unit: unit}
}

// ratio sets num/den, or 0 when den is 0 (the layer did no such work
// in this workload).
func (m *metricSet) ratio(name, unit string, num, den float64) {
	if den == 0 {
		m.set(name, unit, 0)
		return
	}
	m.set(name, unit, num/den)
}

// pctUS sets the q-quantile of ns samples in microseconds. A refused
// percentile reads 0, is listed in the run record and returns false.
func (m *metricSet) pctUS(name string, ns []int64, q float64) bool {
	slices.Sort(ns)
	m.samples[name] = len(ns)
	v, ok := percentile(ns, q)
	if !ok {
		m.refused = append(m.refused, name)
	}
	m.set(name, "us", float64(v)/1e3)
	return ok
}

// sample is one op of a window: when it completed (ns after the window
// opened) and its latency.
type sample struct{ at, lat int64 }

// windowSlices is how many equal slices a window is cut into. A timed
// metric is the median of its per-slice values, so a few seconds of
// interference from outside the process move at most one slice.
const windowSlices = 10

// sliceSamples cuts samples into windowSlices slices of span by
// completion time; samples completing after span (the callers' last,
// straddling ops) fall into the last slice.
func sliceSamples(s []sample, span time.Duration) [][]sample {
	out := make([][]sample, windowSlices)
	w := int64(span) / windowSlices
	for _, x := range s {
		i := int(x.at / max(w, 1))
		out[min(max(i, 0), windowSlices-1)] = append(out[min(max(i, 0), windowSlices-1)], x)
	}
	return out
}

func latencies(s []sample) []int64 {
	out := make([]int64, len(s))
	for i, x := range s {
		out[i] = x.lat
	}
	return out
}

// slicedPctUS sets the median over the window's slices of each slice's
// q-quantile, in microseconds. When some slice has too few samples for
// the quantile, it falls back to the quantile of the pooled samples and
// lists the metric as pooled in the run record. It returns false when
// even the pooled quantile is refused.
func (m *metricSet) slicedPctUS(name string, s []sample, span time.Duration, q float64) bool {
	var per []float64
	for _, part := range sliceSamples(s, span) {
		lat := latencies(part)
		slices.Sort(lat)
		v, ok := percentile(lat, q)
		if !ok {
			per = nil
			break
		}
		per = append(per, float64(v))
	}
	if per == nil {
		m.pooled = append(m.pooled, name)
		return m.pctUS(name, latencies(s), q)
	}
	m.samples[name] = len(s)
	for i := range per {
		per[i] /= 1e3
	}
	m.perPart[name] = slices.Clone(per)
	m.set(name, "us", median(per))
	return true
}

// slicedRate sets the median over the window's slices of ops completed
// per second. elapsed is the whole window including the straddling ops,
// which lengthen the last slice.
func (m *metricSet) slicedRate(name string, s []sample, span, elapsed time.Duration) {
	w := span / windowSlices
	var per []float64
	for i, part := range sliceSamples(s, span) {
		d := w
		if i == windowSlices-1 {
			d = elapsed - w*(windowSlices-1)
		}
		per = append(per, float64(len(part))/d.Seconds())
	}
	m.perPart[name] = slices.Clone(per)
	m.set(name, "ops/s", median(per))
}

// median of float values (sorts vs).
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
