package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// placeWorkers places keys concurrently so WAL group commits batch
// across keys, as they do for a population loaded by many clients.
const placeWorkers = 16

// setUp starts a fresh cluster in a new data directory under dir (and
// the proxy, if asked) and places the whole population through the
// client service. It returns the cluster and the time both took.
func setUp(dir string, pop *population, seed uint64, withProxy bool, tr *tracer) (*cluster, time.Duration, error) {
	data, err := os.MkdirTemp(dir, "cluster-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	c, err := startCluster(data, pop, seed, tr)
	if err != nil {
		return nil, 0, err
	}
	if withProxy {
		if err := c.startProxy(proxyScheme.cfg, len(pop.keys)/proxyCacheDiv, seed, tr); err != nil {
			c.close()
			return nil, 0, err
		}
	}
	if err := placeAll(c.svc, pop); err != nil {
		c.close()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

func placeAll(svc *core.Service, pop *population) error {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	for w := 0; w < placeWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(pop.keys) {
					return
				}
				es := make([]core.Entry, len(pop.initial[k]))
				for i, e := range pop.initial[k] {
					es[i] = core.Entry(e)
				}
				if err := svc.Place(context.Background(), pop.keys[k], es); err != nil {
					errOnce.Do(func() { first = fmt.Errorf("place %s: %w", pop.keys[k], err) })
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// hashTolerance bounds |copies - n(1-(1-1/n)^y)| for Hash-y. With 64
// keys of 100 entries each copy count is a sum of 6400 draws of 1 or
// 2; its standard deviation is about 0.004, so 0.03 is over 7 sigma.
const hashTolerance = 0.03

// gateResult is the paper's cost model measured on the placed
// population: copies per entry and fault-free servers per lookup.
type gateResult struct {
	Copies  map[string]float64 `json:"copies_per_entry"`
	Servers map[string]float64 `json:"servers_per_lookup"`
}

// gate checks the placed cluster against Table 1 before anything is
// timed: exact copies per entry for the deterministic schemes, Hash-2
// within hashTolerance of its expectation, and one server per lookup
// for Full, Fixed and KeyPartition, two for Round-Robin-2. It issues
// one lookup per key, which must also be correct.
func gate(c *cluster, pop *population, chk *checker) (gateResult, error) {
	r := gateResult{Copies: map[string]float64{}, Servers: map[string]float64{}}
	copies := make([]int, len(pop.schemes))
	contacted := make([]int, len(pop.schemes))
	perScheme := make([]int, len(pop.schemes))
	seen := make(map[string]struct{}, lookupT)
	for k, key := range pop.keys {
		sc := pop.scheme[k]
		perScheme[sc]++
		copies[sc] += c.localLen(key)
		s := chk.now()
		res, err := c.svc.PartialLookup(context.Background(), key, lookupT)
		if err != nil {
			return r, fmt.Errorf("gate lookup %s: %w", key, err)
		}
		got := make([]string, len(res.Entries))
		for i, e := range res.Entries {
			got[i] = string(e)
		}
		if !chk.answer(k, got, s, chk.now(), seen) {
			return r, fmt.Errorf("gate lookup %s: wrong or short answer (%d entries)", key, len(got))
		}
		contacted[sc] += res.Contacted
	}
	// Table 1 at h = 100, n = 10: exact copies per entry, and servers
	// per fault-free lookup where the scheme fixes them.
	wantCopies := map[string]float64{"full": 10, "fixed-40": 4, "randomserver-20": 2, "round-2": 2, "keypartition": 1}
	wantServers := map[string]float64{"full": 1, "fixed-40": 1, "keypartition": 1, "round-2": 2}
	var errs []string
	for sc, s := range pop.schemes {
		cp := float64(copies[sc]) / float64(perScheme[sc]*entriesPerKey)
		sv := float64(contacted[sc]) / float64(perScheme[sc])
		r.Copies[s.tag], r.Servers[s.tag] = cp, sv
		if w, ok := wantCopies[s.tag]; ok && cp != w {
			errs = append(errs, fmt.Sprintf("%s copies per entry %.4f, Table 1 says %g", s.tag, cp, w))
		}
		if s.tag == "hash-2" {
			n := float64(numServers)
			w := n * (1 - math.Pow(1-1/n, float64(s.cfg.Y)))
			if math.Abs(cp-w) > hashTolerance {
				errs = append(errs, fmt.Sprintf("hash-2 copies per entry %.4f, expected %.3f ± %g", cp, w, hashTolerance))
			}
		}
		if w, ok := wantServers[s.tag]; ok && sv != w {
			errs = append(errs, fmt.Sprintf("%s servers per lookup %.4f, want %g", s.tag, sv, w))
		}
	}
	if len(errs) > 0 {
		return r, fmt.Errorf("set-up gate: %v", errs)
	}
	return r, nil
}

// workDir is where a run keeps its data directories: inside the
// checkout, removed when the run ends.
func workDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}
