package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// checker holds, per key, every entry an answer may contain and when:
// an entry may appear in a lookup [s, e] if its add was sent before e
// and its delete was not acked before s. With one caller per key
// (churn) this is exactly the acked-live set. With shared keys
// (proxy-zipf) it admits every answer a linearizable service could
// give, and rejects any entry deleted before the lookup began or added
// after it ended.
type checker struct {
	base time.Time
	keys []keyEntries
}

type keyEntries struct {
	mu sync.RWMutex
	// entries maps an entry to [add sent, delete acked] in ns since
	// base; 0 means "before the run" and "not deleted".
	entries map[string][2]int64
}

func newChecker(pop *population) *checker {
	c := &checker{base: time.Now(), keys: make([]keyEntries, len(pop.keys))}
	for k, es := range pop.initial {
		m := make(map[string][2]int64, len(es))
		for _, e := range es {
			m[e] = [2]int64{}
		}
		c.keys[k].entries = m
	}
	return c
}

func (c *checker) now() int64 { return int64(time.Since(c.base)) }

// adding records that an add of e to key is about to be sent.
func (c *checker) adding(key int, e string, at int64) {
	k := &c.keys[key]
	k.mu.Lock()
	k.entries[e] = [2]int64{at, 0}
	k.mu.Unlock()
}

// deleted records that a delete of e from key was acked.
func (c *checker) deleted(key int, e string, at int64) {
	k := &c.keys[key]
	k.mu.Lock()
	if st, ok := k.entries[e]; ok {
		k.entries[e] = [2]int64{st[0], at}
	}
	k.mu.Unlock()
}

// answer reports whether a lookup of key over [start, end] that
// returned got is correct: at least t distinct entries, each one
// possibly live during the lookup. seen is scratch space.
func (c *checker) answer(key int, got []string, start, end int64, seen map[string]struct{}) bool {
	if len(got) < lookupT {
		return false
	}
	clear(seen)
	k := &c.keys[key]
	k.mu.RLock()
	defer k.mu.RUnlock()
	for _, e := range got {
		if _, dup := seen[e]; dup {
			return false
		}
		seen[e] = struct{}{}
		st, ok := k.entries[e]
		if !ok || st[0] > end || (st[1] != 0 && st[1] <= start) {
			return false
		}
	}
	return true
}

// live counts entries not known to be deleted.
func (c *checker) live() int {
	n := 0
	for i := range c.keys {
		k := &c.keys[i]
		k.mu.RLock()
		for _, st := range k.entries {
			if st[1] == 0 {
				n++
			}
		}
		k.mu.RUnlock()
	}
	return n
}

// target executes ops against the system under test: the direct
// core.Service, or the proxy over a one-server client.
type target struct {
	pop   *population
	svc   *core.Service    // direct mode
	px    transport.Caller // proxy mode: client connection to the proxy
	pxCfg wire.Config
}

// do runs one op and reports its outcome; contacted is the lookup's
// Result.Contacted (direct mode).
func (tg *target) do(ctx context.Context, o op) (entries []string, contacted int, err error) {
	key := tg.pop.keys[o.key]
	if tg.px != nil {
		var msg wire.Message
		switch o.kind {
		case opLookup:
			msg = wire.Lookup{Key: key, T: lookupT}
		case opAdd:
			msg = wire.Add{Key: key, Config: tg.pxCfg, Entry: o.entry}
		default:
			msg = wire.Delete{Key: key, Config: tg.pxCfg, Entry: o.entry}
		}
		reply, err := tg.px.Call(ctx, 0, msg)
		if err != nil {
			return nil, 0, err
		}
		switch r := reply.(type) {
		case wire.LookupReply:
			if r.Err != "" {
				return nil, 0, errors.New(r.Err)
			}
			return r.Entries, 0, nil
		case wire.Ack:
			if r.Err != "" {
				return nil, 0, errors.New(r.Err)
			}
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("unexpected reply %T", reply)
	}
	switch o.kind {
	case opLookup:
		res, err := tg.svc.PartialLookup(ctx, key, lookupT)
		out := make([]string, len(res.Entries))
		for i, e := range res.Entries {
			out[i] = string(e)
		}
		return out, res.Contacted, err
	case opAdd:
		return nil, 0, tg.svc.Add(ctx, key, core.Entry(o.entry))
	default:
		return nil, 0, tg.svc.Delete(ctx, key, core.Entry(o.entry))
	}
}

// tally is what a window measured.
type tally struct {
	ops, failed      int64
	contacted        int64 // Σ Result.Contacted over the lookups
	lookups, updates []sample
	elapsed          time.Duration
}

func (a *tally) merge(b *tally) {
	a.ops += b.ops
	a.failed += b.failed
	a.contacted += b.contacted
	a.lookups = append(a.lookups, b.lookups...)
	a.updates = append(a.updates, b.updates...)
}

// window runs one closed-loop caller per generator until d has passed
// (or, with d = 0, until each caller has run perCaller ops). Each caller
// waits for its reply before sending the next op. With tr set, every op
// is a root span and the window also ends when the span buffer fills.
func (tg *target) window(gens []*generator, chk *checker, d time.Duration, perCaller int, tr *tracer) tally {
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		mu   sync.Mutex
		all  tally
	)
	start := time.Now()
	deadline := start.Add(d)
	for _, g := range gens {
		wg.Add(1)
		go func(g *generator) {
			defer wg.Done()
			var t tally
			seen := make(map[string]struct{}, lookupT)
			for n := 0; !stop.Load(); n++ {
				if d == 0 && n == perCaller {
					break
				}
				o := g.next()
				ctx := context.Background()
				var ref *spanRef
				if tr != nil {
					ref = &spanRef{id: tr.newID()}
					ctx = context.WithValue(ctx, spanKey{}, ref)
				}
				if o.kind == opAdd {
					chk.adding(o.key, o.entry, chk.now())
				}
				s := chk.now()
				t0 := time.Now()
				got, contacted, err := tg.do(ctx, o)
				lat := time.Since(t0)
				e := chk.now()
				ok := err == nil
				smp := sample{at: int64(t0.Add(lat).Sub(start)), lat: int64(lat)}
				switch o.kind {
				case opLookup:
					ok = ok && chk.answer(o.key, got, s, e, seen)
					t.contacted += int64(contacted)
					t.lookups = append(t.lookups, smp)
				case opDelete:
					if ok {
						chk.deleted(o.key, o.entry, e)
					}
					t.updates = append(t.updates, smp)
				default:
					t.updates = append(t.updates, smp)
				}
				t.ops++
				if !ok {
					t.failed++
				}
				if tr != nil {
					msg := wire.KindLookup
					if o.kind == opAdd {
						msg = wire.KindAdd
					} else if o.kind == opDelete {
						msg = wire.KindDelete
					}
					tr.record(span{id: ref.id, start: int64(t0.Sub(tr.epoch)), end: int64(t0.Add(lat).Sub(tr.epoch)),
						kind: spanOp, msg: msg, key: int32(o.key), useful: -1})
				}
				if d > 0 && (time.Now().After(deadline) || (tr != nil && n%256 == 0 && tr.full())) {
					stop.Store(true)
				}
			}
			mu.Lock()
			all.merge(&t)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	all.elapsed = time.Since(start)
	return all
}
