package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/wire"
)

// The paper's canonical point (Sec. 6): h entries per key, lookups for
// t of them, over n servers.
const (
	numServers    = 10
	entriesPerKey = 100
	lookupT       = 35
	numKeys       = 448
)

// scheme is one placement configuration of the key population.
type scheme struct {
	tag string // metric-name form, e.g. "round-2"
	cfg wire.Config
}

// directSchemes are the seven configurations the direct workloads mix.
// Fixed uses x = 40 because Fixed-x can never satisfy t > x.
func directSchemes(seed uint64) []scheme {
	return []scheme{
		{"full", wire.Config{Scheme: wire.FullReplication}},
		{"fixed-40", wire.Config{Scheme: wire.Fixed, X: 40}},
		{"randomserver-20", wire.Config{Scheme: wire.RandomServer, X: 20}},
		{"round-2", wire.Config{Scheme: wire.RoundRobin, Y: 2}},
		{"hash-2", wire.Config{Scheme: wire.Hash, Y: 2, Seed: seed}},
		{"multiprobe-2", wire.Config{Scheme: wire.MultiProbe, Y: 2, Seed: seed}},
		{"keypartition", wire.Config{Scheme: wire.KeyPartition}},
	}
}

// proxyScheme is the one default scheme plsproxy serves.
var proxyScheme = scheme{"round-2", wire.Config{Scheme: wire.RoundRobin, Y: 2}}

// population is the key set a workload runs against, with each key's
// initial entries.
type population struct {
	keys    []string
	scheme  []int // index into schemes, per key
	schemes []scheme
	initial [][]string
	index   map[string]int
}

// newPopulation builds numKeys keys, an equal share per scheme. Key
// and entry names carry a tag of the seed, so hashed placements differ
// from seed to seed.
func newPopulation(schemes []scheme, seed uint64) *population {
	p := &population{schemes: schemes, index: make(map[string]int)}
	tag := rand.New(rand.NewPCG(seed, 0x6b657973)).Uint32()
	for i := 0; i < numKeys/len(schemes); i++ {
		// Interleave schemes so every contiguous or strided slice of
		// the key list covers all of them.
		for s := range schemes {
			k := fmt.Sprintf("%s/%08x/%03d", schemes[s].tag, tag, i)
			es := make([]string, entriesPerKey)
			for j := range es {
				es[j] = fmt.Sprintf("%08x/%s/%03d/e%03d", tag, schemes[s].tag, i, j)
			}
			p.index[k] = len(p.keys)
			p.keys = append(p.keys, k)
			p.scheme = append(p.scheme, s)
			p.initial = append(p.initial, es)
		}
	}
	return p
}

// configOf is the core.Classifier of the population.
func (p *population) configOf(key string) (wire.Config, bool) {
	i, ok := p.index[key]
	if !ok {
		return wire.Config{}, false
	}
	return p.schemes[p.scheme[i]].cfg, true
}

type opKind uint8

const (
	opLookup opKind = iota
	opAdd
	opDelete
)

// op is one operation of a generated stream: the only input the
// program under test receives.
type op struct {
	kind  opKind
	key   int
	entry string // add and delete only
}

// generator produces one caller's op stream. It is a pure function of
// (workload, seed, caller, callers): it tracks the entries it has
// itself added so deletes name real entries, independent of how the
// program answers.
type generator struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	mix    mix
	keys   []int // keys this caller draws from
	rank   []int // Zipf rank -> key, for skewed mixes
	caller int
	tag    uint32
	n      int
	added  map[int][]string // FIFO of this caller's live adds, per key
	pend   string           // update probe: the entry to delete next
	pendK  int
}

// mix describes a workload's op mix.
type mix struct {
	lookup   float64 // share of lookups; the rest are updates
	addShare float64 // share of updates that add (the rest delete)
	owned    bool    // callers draw only from their own disjoint key sets
	zipfS    float64 // > 0: key popularity is Zipf(s) instead of uniform
	pairs    bool    // updates come as add-then-delete pairs of one entry
}

// newGenerator returns the stream of one of callers closed-loop callers.
func newGenerator(m mix, seed uint64, stream uint64, caller, callers, numKeys int) *generator {
	g := &generator{
		rng:    rand.New(rand.NewPCG(seed, stream<<16|uint64(caller))),
		mix:    m,
		caller: caller,
		added:  make(map[int][]string),
	}
	g.tag = g.rng.Uint32()
	for k := 0; k < numKeys; k++ {
		if !m.owned || k%callers == caller {
			g.keys = append(g.keys, k)
		}
	}
	if m.zipfS > 0 {
		// Popularity ranks are a seeded shuffle of the keys, the same
		// for every caller, so all callers share one hot set.
		g.rank = rand.New(rand.NewPCG(seed, stream<<16|0xffff)).Perm(numKeys)
		g.zipf = rand.NewZipf(g.rng, m.zipfS, 1, uint64(numKeys-1))
	}
	return g
}

func (g *generator) pickKey() int {
	if g.zipf != nil {
		return g.rank[g.zipf.Uint64()]
	}
	return g.keys[g.rng.IntN(len(g.keys))]
}

func (g *generator) fresh() string {
	g.n++
	return fmt.Sprintf("%08x/c%d/a%d", g.tag, g.caller, g.n)
}

// next returns the caller's next op.
func (g *generator) next() op {
	if g.mix.pairs {
		if g.pend != "" {
			o := op{kind: opDelete, key: g.pendK, entry: g.pend}
			g.pend = ""
			return o
		}
		k := g.pickKey()
		g.pend, g.pendK = g.fresh(), k
		return op{kind: opAdd, key: k, entry: g.pend}
	}
	if g.rng.Float64() < g.mix.lookup {
		return op{kind: opLookup, key: g.pickKey()}
	}
	k := g.pickKey()
	if fifo := g.added[k]; g.rng.Float64() >= g.mix.addShare && len(fifo) > 0 {
		// Delete the oldest entry this caller added to the key: the
		// initial entries stay, so no key drops below h.
		g.added[k] = fifo[1:]
		return op{kind: opDelete, key: k, entry: fifo[0]}
	}
	e := g.fresh()
	g.added[k] = append(g.added[k], e)
	return op{kind: opAdd, key: k, entry: e}
}
