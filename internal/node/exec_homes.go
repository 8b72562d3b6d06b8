package node

import (
	"context"

	"repro/internal/entry"
	"repro/internal/store"
	"repro/internal/wire"
)

// homesExec implements the per-entry-home schemes: Hash-y (Secs. 3.5,
// 5.5) and its MultiProbe-y extension. Entry v lives on exactly the
// servers HomesFor assigns it — f1(v)..fy(v) for Hash-y, the
// multi-probe ring choice for MultiProbe-y (arXiv:1505.00062), or the
// zone-spread assignment under wire.Config.ZoneSpread — so every update
// touches exactly those targets and no coordinator state exists. The
// two schemes share every protocol step; they differ only in how much
// a membership change remaps (Hash-y's mod-n re-homes nearly every
// entry, MultiProbe-y's n-independent ring points ~1/(n+1) of them).
type homesExec struct{}

// place installs the config everywhere with an empty broadcast, then
// sends each entry to its homes.
func (homesExec) place(ctx context.Context, n *Node, m wire.Place) wire.Message {
	cfg := m.Config
	numServers := n.numServers()
	tp := n.Topology()
	if err := n.broadcast(ctx, wire.StoreBatch{Key: m.Key, Config: cfg}); err != nil {
		return wire.Ack{Err: err.Error()}
	}
	for _, v := range m.Entries {
		for _, target := range HomesFor(v, cfg, numServers, tp) {
			if err := n.callBestEffort(ctx, target, wire.StoreOne{Key: m.Key, Config: cfg, Entry: v}); err != nil {
				return wire.Ack{Err: err.Error()}
			}
		}
	}
	return wire.Ack{}
}

func (homesExec) add(ctx context.Context, n *Node, _ *store.KeyState, cfg wire.Config, m wire.Add) wire.Message {
	for _, target := range HomesFor(m.Entry, cfg, n.numServers(), n.Topology()) {
		if err := n.callBestEffort(ctx, target, wire.StoreOne{Key: m.Key, Config: cfg, Entry: m.Entry}); err != nil {
			return wire.Ack{Err: err.Error()}
		}
	}
	return wire.Ack{}
}

func (homesExec) del(ctx context.Context, n *Node, _ *store.KeyState, cfg wire.Config, m wire.Delete) wire.Message {
	for _, target := range HomesFor(m.Entry, cfg, n.numServers(), n.Topology()) {
		if err := n.callBestEffort(ctx, target, wire.RemoveOne{Key: m.Key, Config: cfg, Entry: m.Entry}); err != nil {
			return wire.Ack{Err: err.Error()}
		}
	}
	return wire.Ack{}
}

func (homesExec) storeBatch(_ *Node, st *store.State, entries []string) {
	// The place broadcast carries an empty batch purely to install the
	// config; entries arrive via home-targeted StoreOne messages.
	logAddMany(st, entries)
}

func (homesExec) storeOne(_ *Node, st *store.State, m wire.StoreOne) {
	logAdd(st, entry.Entry(m.Entry))
}

func (homesExec) removeOne(_ context.Context, _ *Node, st *store.State, m wire.RemoveOne) func() {
	logRemove(st, entry.Entry(m.Entry))
	return nil
}

// plan: each local entry is offered to the other homes HomesFor gives
// it under m, and released where this node is not one of them.
func (homesExec) plan(v repairView, m members) ([]repairCandidate, []string) {
	if v.cfg.Y <= 0 {
		return nil, nil
	}
	return homesPlan(v.entries, m, false, func(s string) ([]int, int, bool) {
		return HomesFor(s, v.cfg, m.n, m.tp), 0, true
	})
}

// accept: store an entry only if this node really is one of its homes
// under m (matching the planner); anything else is dropped.
func (homesExec) accept(st *store.State, p wire.RepairPush, m members) int {
	return acceptMissing(st, p.Entries, -1, func(s string) bool {
		return isHome(s, st.Cfg, m.n, m.self, m.tp)
	})
}
