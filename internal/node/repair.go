package node

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/entry"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Anti-entropy repair. Once a server dies permanently, the entries it
// held are simply gone: the selector routes around the corpse but
// nothing restores the placement scheme's replication invariant, so
// achieved-t decays under sustained churn. The Repairer is a per-node
// background sweeper that walks the store's copy-on-write snapshots
// and reconciles each key against the current membership — the
// Round-y hole-plugging idea generalized to every strategy.
//
// Repair and membership rebalance (membership.go) are one protocol:
// reconcileKey plans per scheme (executor.plan), queries each live
// target for what it is missing, pushes only that, and releases local
// copies the placement no longer assigns here once a surviving copy is
// confirmed. Repair is that sweep against an unchanged membership;
// rebalance runs it against a committed join or drain. A repair sweep
// releases only while no join or drain is in flight on its node
// (membership.go explains why).
//
// Two disciplines keep repair invisible when it is not needed:
//
//   - The RNG is never consulted. Plans transfer existing entries at
//     their existing positions; receivers apply deterministic
//     acceptance rules (fill to x, legal home checks). A sweep
//     therefore leaves every node's seeded RNG stream exactly where
//     the workload put it, and golden seeds stay valid with repair
//     enabled.
//   - Sweeps are epoch-gated on the health source: a sweep runs only
//     when the failure epoch advanced since the last completed sweep,
//     so a cluster that has seen no (new) failures pays zero wire
//     traffic for having repair on.
//
// Acceptance and release run through the same logAdd/logAddAt/
// logRemove helpers as the update protocols, so reconciled state is
// WAL-logged and crash recovery stays byte-identical.

// RepairHealth tells the repair daemon which servers to presume dead
// and when the failure picture last changed. *selector.Selector
// satisfies it (open circuits, monotone failure counter), as does
// cluster.Health for simulations.
type RepairHealth interface {
	// PresumedDead reports, per server, whether repair should treat it
	// as unreachable: neither queried nor pushed to.
	PresumedDead() []bool
	// FailureEpoch is a monotone counter that advances whenever a new
	// failure (or failure-state transition) is observed. Sweeps are
	// skipped while it matches the epoch of the last completed sweep.
	FailureEpoch() uint64
}

// RepairOptions configures a Repairer.
type RepairOptions struct {
	// Interval between background sweeps (Start); default 30s.
	Interval time.Duration
	// Health classifies peers and gates sweeps. Required.
	Health RepairHealth
	// Metrics, when set, records sweep outcomes.
	Metrics *telemetry.RepairMetrics
}

// SweepStats summarizes one reconciliation sweep: a repair sweep
// (Repairer.SweepOnce) or a member's share of a join or drain
// (Node.LastRebalance).
type SweepStats struct {
	// Epoch is the membership epoch a rebalance sweep committed; 0 for
	// repair.
	Epoch uint64
	// Skipped reports that repair's epoch gate short-circuited the
	// sweep before any wire traffic.
	Skipped bool
	// Keys is the number of keys examined; ChangedKeys counts keys for
	// which at least one entry moved or was released.
	Keys        int
	ChangedKeys int
	// Queries and Pushes count reconciliation messages sent.
	Queries int
	Pushes  int
	// Moved counts entries accepted by receivers; Released counts local
	// copies dropped — always after a surviving copy was confirmed
	// (seen on a target, or accepted by one).
	Moved    int
	Released int
	// UnderReplicated counts (entry, target) pairs the placement
	// required but that were missing before this sweep pushed them.
	UnderReplicated int
}

// Repairer runs anti-entropy sweeps for one node.
type Repairer struct {
	n   *Node
	opt RepairOptions

	mu         sync.Mutex // serializes sweeps; guards sweptEpoch
	sweptEpoch uint64

	stop chan struct{}
	done chan struct{}
}

// NewRepairer returns a repairer for n. It does not start sweeping;
// call Start for the background loop or SweepOnce directly.
func NewRepairer(n *Node, opt RepairOptions) *Repairer {
	if opt.Health == nil {
		panic("node: NewRepairer requires a RepairHealth source")
	}
	if opt.Interval <= 0 {
		opt.Interval = 30 * time.Second
	}
	return &Repairer{n: n, opt: opt}
}

// Start launches the background sweep loop. Stop terminates it.
func (r *Repairer) Start() {
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.opt.Interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.SweepOnce(context.Background())
			}
		}
	}()
}

// Stop terminates the background loop and waits for an in-flight sweep
// to finish. It is a no-op if Start was never called.
func (r *Repairer) Stop() {
	if r.stop == nil {
		return
	}
	close(r.stop)
	<-r.done
	r.stop = nil
	r.done = nil
}

// SweepOnce runs one full sweep: every key, in sorted order (the
// store's shard iteration order is unspecified, and deterministic
// sweeps are what make the churn soak tests reproducible). It returns
// what happened; tests and the churn benchmark drive repair through it
// directly.
func (r *Repairer) SweepOnce(ctx context.Context) SweepStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch := r.opt.Health.FailureEpoch()
	if epoch == r.sweptEpoch {
		r.opt.Metrics.RecordSweep(true)
		return SweepStats{Skipped: true}
	}
	stats := r.n.sweep(ctx, r.n.repairMembership(), r.opt.Health.PresumedDead())
	// Converged at this epoch: until the health picture changes again,
	// further sweeps are free.
	r.sweptEpoch = epoch
	r.opt.Metrics.RecordSweep(false)
	r.opt.Metrics.RecordSweepResult(stats.ChangedKeys, stats.Moved, stats.Released, stats.Queries, stats.Pushes, stats.UnderReplicated)
	return stats
}

// sweep reconciles every key against mc, in sorted key order: shard
// iteration order is unspecified, and deterministic sweeps are what
// make the churn soak tests reproducible. dead marks transport slots
// neither queried nor pushed to.
func (n *Node) sweep(ctx context.Context, mc memberChange, dead []bool) SweepStats {
	type keyItem struct {
		key string
		ks  *store.KeyState
	}
	var items []keyItem
	n.store.Range(func(key string, ks *store.KeyState) bool {
		items = append(items, keyItem{key, ks})
		return true
	})
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })
	stats := SweepStats{Epoch: mc.epoch}
	for _, it := range items {
		n.reconcileKey(ctx, it.key, it.ks, mc, dead, &stats)
	}
	return stats
}

// repairView is a copy of one key's local state, taken under the key
// lock and then planned against with no lock held.
type repairView struct {
	key       string
	cfg       wire.Config
	entries   []string       // local set, internal order
	positions map[string]int // Round-y positions
	hCount    int            // RandomServer-x system size
	head      int            // Round-y coordinator counters
	tail      int
}

// repairCandidate is one peer's share of a key's plan: the entries the
// scheme says the target should hold (with their Round-y positions
// when hasPos), and whether acceptance is capped at the receiver's x
// (subset schemes).
type repairCandidate struct {
	target    int
	entries   []string
	positions []uint64
	hasPos    bool
	fillToX   bool
}

// viewKey snapshots one key's state for planning.
func viewKey(key string, ks *store.KeyState) repairView {
	v := repairView{key: key}
	ks.View(func(st *store.State) {
		v.cfg = st.Cfg
		members := st.Set.Members()
		v.entries = make([]string, len(members))
		for i, m := range members {
			v.entries[i] = string(m)
		}
		switch ext := st.Ext.(type) {
		case *roundExt:
			v.positions = make(map[string]int, len(ext.positions))
			for e, p := range ext.positions {
				v.positions[string(e)] = p
			}
			v.head, v.tail = ext.head, ext.tail
		case *rsExt:
			v.hCount = ext.hCount
		}
	})
	return v
}

// everyMemberPlan is the plan of the schemes where any member is a
// legal home (Full unconditionally; Fixed-x and RandomServer-x capped
// at x via fillToX): the whole local set is offered to every peer, and
// released only when this node is leaving.
func everyMemberPlan(entries []string, m members, fillToX bool) ([]repairCandidate, []string) {
	if len(entries) == 0 {
		return nil, nil
	}
	var push []repairCandidate
	for t := 0; t < m.n; t++ {
		if t != m.self {
			push = append(push, repairCandidate{target: t, entries: entries, fillToX: fillToX})
		}
	}
	if m.self >= 0 {
		return push, nil
	}
	return push, entries
}

// homesPlan is the plan of the schemes with deterministic homes: it
// groups entries by the homes the callback assigns them under m
// (Round-y windows with their positions, Hash-y/MultiProbe-y
// assignments, the KeyPartition home), excluding self, and releases
// every entry whose homes do not include self. Entries the callback
// rejects are neither offered nor released. Targets come out in
// ascending rank order and entries in local set order, so plans are
// deterministic.
func homesPlan(entries []string, m members, hasPos bool,
	homes func(s string) (targets []int, pos int, ok bool)) ([]repairCandidate, []string) {
	byTarget := make(map[int]*repairCandidate)
	var release []string
	for _, s := range entries {
		targets, pos, ok := homes(s)
		if !ok {
			continue
		}
		home := false
		for _, t := range targets {
			if t == m.self {
				home = true
			}
			if t == m.self || t < 0 || t >= m.n {
				continue
			}
			c := byTarget[t]
			if c == nil {
				c = &repairCandidate{target: t, hasPos: hasPos}
				byTarget[t] = c
			}
			c.entries = append(c.entries, s)
			if hasPos {
				c.positions = append(c.positions, uint64(pos))
			}
		}
		if !home {
			release = append(release, s)
		}
	}
	order := make([]int, 0, len(byTarget))
	for t := range byTarget {
		order = append(order, t)
	}
	sort.Ints(order)
	push := make([]repairCandidate, 0, len(order))
	for _, t := range order {
		push = append(push, *byTarget[t])
	}
	return push, release
}

// acceptMissing stores each valid pushed entry the set does not hold
// yet and keep admits (nil admits all), stopping once the set reaches
// limit (negative: no cap). It returns how many entries it stored.
func acceptMissing(st *store.State, entries []string, limit int, keep func(string) bool) int {
	accepted := 0
	for _, s := range entries {
		if limit >= 0 && st.Set.Len() >= limit {
			break
		}
		v := entry.Entry(s)
		if !v.Valid() || st.Set.Contains(v) || (keep != nil && !keep(s)) {
			continue
		}
		if logAdd(st, v) {
			accepted++
		}
	}
	return accepted
}

// reconcileKey brings one key's local copy in line with its scheme's
// placement under the membership mc describes: plan per scheme, query
// each live target for what it is missing, push only that, then
// release local copies the placement no longer assigns here — but only
// once a surviving copy is confirmed (seen on a target, or accepted by
// one). Unconfirmed entries stay put: on a drain they ride out in the
// leaver's final snapshot (the operator's escrow) rather than be
// destroyed — a sole RandomServer-x copy on a leaver whose peers are
// all at capacity is the concrete case.
//
// Every push names mc (see wire.RepairPush): a repair push, on the
// unchanged membership, names no transition and is evaluated in the
// receiver's own view; a rebalance push self-describes the committed
// join or drain its receiver must evaluate acceptance in. Repair
// releases only if the node is still settled in the view it planned
// in (settledAt, checked under the key lock so a rebalance push
// landing on this key is ordered before or after the check). Targets
// are post-change ranks, addressed at mc.slotOf; dead marks transport
// slots neither queried nor pushed to. For Round-y the sweep also
// re-mirrors the coordinator counters over mc's coordinator ranks
// (adopt-if-advance on receipt), so a replaced, shifted or newly
// joined coordinator relearns head/tail. The key's outcome is added to
// stats.
func (n *Node) reconcileKey(ctx context.Context, key string, ks *store.KeyState, mc memberChange, dead []bool, stats *SweepStats) {
	moved, released := 0, 0
	view := viewKey(key, ks)
	self := mc.rankOf(n.ID())
	push, release := execFor(view.cfg.Scheme).plan(view, members{self: self, n: mc.newN, tp: n.Topology()})
	isDead := func(slot int) bool { return slot < len(dead) && dead[slot] }

	safe := make(map[string]bool)
	for _, cand := range push {
		slot := mc.slotOf(cand.target)
		if isDead(slot) {
			continue
		}
		reply, err := n.callReply(ctx, slot, wire.RepairQuery{Key: key, Entries: cand.entries})
		if err != nil {
			continue // unreachable now; a later sweep retries
		}
		qr, ok := reply.(wire.RepairQueryReply)
		if !ok || qr.Err != "" || len(qr.Missing) != len(cand.entries) {
			continue
		}
		stats.Queries++
		// Subset schemes only top the receiver up to x; deterministic
		// homes push every missing entry.
		budget := -1
		if cand.fillToX {
			budget = max(view.cfg.X-qr.Len, 0)
		}
		var entries []string
		var positions []uint64
		for i, missing := range qr.Missing {
			if !missing {
				safe[cand.entries[i]] = true // target already holds it
				continue
			}
			if budget == 0 {
				continue
			}
			entries = append(entries, cand.entries[i])
			if cand.hasPos {
				positions = append(positions, cand.positions[i])
			}
			if budget > 0 {
				budget--
			}
		}
		if len(entries) == 0 {
			continue
		}
		stats.UnderReplicated += len(entries)
		preply, err := n.callReply(ctx, slot, wire.RepairPush{
			Key: key, Config: view.cfg, Entries: entries,
			Positions: positions, HasPos: cand.hasPos, HCount: view.hCount,
			Epoch: mc.epoch, NewN: mc.pushN(), Leaving: mc.leaving,
		})
		if err != nil {
			continue
		}
		pr, ok := preply.(wire.RepairPushReply)
		if !ok || pr.Err != "" {
			continue
		}
		stats.Pushes++
		moved += pr.Accepted
		if pr.Accepted == len(entries) {
			// Full acceptance: every pushed entry has a confirmed copy.
			// (Partial acceptance doesn't say which ones landed, so none
			// are marked; this node then keeps them, safely.)
			for _, s := range entries {
				safe[s] = true
			}
		}
	}

	if len(release) > 0 && len(safe) > 0 {
		ks.Update(func(st *store.State) {
			if mc.unchanged() && !n.settledAt(mc.mark) {
				return
			}
			for _, s := range release {
				if safe[s] && logRemove(st, entry.Entry(s)) {
					released++
				}
			}
		})
		if released > 0 && ks.WaitDurable() != nil {
			released = 0
		}
	}

	if view.cfg.Scheme == wire.RoundRobin && (view.head > 0 || view.tail > 0) {
		for r := 0; r < coordinators(view.cfg) && r < mc.newN; r++ {
			if r == self || isDead(mc.slotOf(r)) {
				continue
			}
			// Best-effort, adopt-if-advance on the receiver.
			_, _ = n.callReply(ctx, mc.slotOf(r), wire.CounterSync{Key: key, Head: view.head, Tail: view.tail})
		}
	}
	stats.Keys++
	stats.Moved += moved
	stats.Released += released
	if moved > 0 || released > 0 {
		stats.ChangedKeys++
	}
}

// handleRepairQuery answers phase one of a sweep: which of the listed
// candidates this server is missing, plus its local set size and
// RandomServer system count (so the sweeper can cap fill-to-x pushes).
// A draining node answers with an error instead: its copies are about
// to leave with it, so no sweep may count them as surviving. (Rebalance
// sweeps never query the leaver; it has no rank after the change.)
func (n *Node) handleRepairQuery(m wire.RepairQuery) wire.Message {
	if n.leaving.Load() {
		return wire.RepairQueryReply{Err: errLeaving}
	}
	reply := wire.RepairQueryReply{Missing: make([]bool, len(m.Entries))}
	ks, ok := n.store.Get(m.Key)
	if !ok {
		for i := range reply.Missing {
			reply.Missing[i] = true
		}
		return reply
	}
	ks.View(func(st *store.State) {
		for i, s := range m.Entries {
			reply.Missing[i] = !st.Set.Contains(entry.Entry(s))
		}
		reply.Len = st.Set.Len()
		if ext, ok := st.Ext.(*rsExt); ok {
			reply.HCount = ext.hCount
		}
	})
	return reply
}

// errLeaving refuses repair traffic on a node that committed its own
// drain.
const errLeaving = "node: draining out of the cluster"

// handleRepairPush applies one reconciliation transfer as this node in
// the membership the push names, then hands it to applyPush.
//
// A repair push (NewN == 0) is evaluated in the current membership. A
// draining node refuses it: an accepted copy would depart with the
// leaver while the pusher released its own.
//
// A rebalance push is evaluated in the post-change view it
// self-describes, including the size a key it creates is validated
// against. The epoch ordering is deliberately loose in the forward
// direction: during a broadcast, members that already swept push to
// members that have not yet seen their own update, so a future epoch
// must be accepted; only pushes from an epoch this member has already
// superseded are rejected.
func (n *Node) handleRepairPush(m wire.RepairPush) wire.Message {
	id := n.ID()
	if m.NewN == 0 {
		if n.leaving.Load() {
			return wire.RepairPushReply{Err: errLeaving}
		}
		return n.applyPush(m, members{self: id, n: n.numServers(), tp: n.Topology()})
	}
	if m.NewN < 0 {
		return wire.RepairPushReply{Err: "node: rebalance push with negative cluster size"}
	}
	if cur := n.memberEpoch.Load(); m.Epoch < cur {
		return wire.RepairPushReply{Err: fmt.Sprintf("node: stale rebalance push (epoch %d < %d)", m.Epoch, cur)}
	}
	// A faster member is already moving data for this epoch: until
	// this node has applied the same transition, its repair sweeps plan
	// in a view the pusher no longer shares and must not release.
	raiseEpoch(&n.seenEpoch, m.Epoch)
	// Once the host has compacted this epoch's transition, our id is
	// already a post-change rank: mapping it through rankOf again would
	// mis-rank us (or mistake us for the departed leaver) when a slower
	// member's same-epoch push arrives after our renumbering.
	compacted := m.Epoch > 0 && m.Epoch == n.compactedEpoch.Load()
	if !compacted && m.Leaving >= 0 && id == m.Leaving {
		return wire.RepairPushReply{Err: "node: rebalance push addressed to the leaver"}
	}
	mc := memberChange{newN: m.NewN, leaving: m.Leaving}
	selfRank := mc.rankOf(id)
	if compacted {
		selfRank = id
	}
	if selfRank < 0 || selfRank >= m.NewN {
		return wire.RepairPushReply{Err: fmt.Sprintf("node: rebalance push outside membership (rank %d of %d)", selfRank, m.NewN)}
	}
	return n.applyPush(m, members{self: selfRank, n: m.NewN, tp: n.Topology()})
}

// applyPush is the receiving half of reconciliation: each entry passes
// the key's scheme acceptance rule, evaluated as member m.self of m, or
// is dropped. The key's
// stored config wins, as everywhere else; a push may only create key
// state under a config that would have been accepted at Place time in
// m, so a corrupt or hostile config cannot poison the store. Accepted
// entries are WAL-logged through the same helpers as the update
// protocols, and the reply waits for durability like any other
// mutation ack.
func (n *Node) applyPush(p wire.RepairPush, m members) wire.Message {
	if p.HasPos && len(p.Positions) != len(p.Entries) {
		return wire.RepairPushReply{Err: "node: push positions/entries length mismatch"}
	}
	if _, ok := n.store.Get(p.Key); !ok {
		if err := p.Config.Validate(m.n); err != nil {
			return wire.RepairPushReply{Err: "node: push: " + err.Error()}
		}
	}
	ks := n.store.GetOrCreate(p.Key, p.Config)
	accepted := 0
	ks.Update(func(st *store.State) {
		accepted = execFor(st.Cfg.Scheme).accept(st, p, m)
	})
	if err := ks.WaitDurable(); err != nil {
		return wire.RepairPushReply{Err: "node: wal: " + err.Error()}
	}
	return wire.RepairPushReply{Accepted: accepted}
}
