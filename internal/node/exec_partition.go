package node

import (
	"context"
	"hash/fnv"

	"repro/internal/entry"
	"repro/internal/store"
	"repro/internal/wire"
)

// partExec implements the KeyPartition baseline (Fig. 1 center):
// traditional hashing, where the whole entry set lives on the single
// server the key hashes to. It is not a partial-lookup strategy — the
// paper's conclusion contrasts against exactly this design.
type partExec struct{}

func (partExec) place(ctx context.Context, n *Node, m wire.Place) wire.Message {
	target := PartitionServer(m.Key, n.numServers())
	return n.ackCall(ctx, target, wire.StoreBatch{Key: m.Key, Config: m.Config, Entries: m.Entries})
}

func (partExec) add(ctx context.Context, n *Node, _ *store.KeyState, cfg wire.Config, m wire.Add) wire.Message {
	return n.ackCall(ctx, PartitionServer(m.Key, n.numServers()), wire.StoreOne{Key: m.Key, Config: cfg, Entry: m.Entry})
}

func (partExec) del(ctx context.Context, n *Node, _ *store.KeyState, cfg wire.Config, m wire.Delete) wire.Message {
	return n.ackCall(ctx, PartitionServer(m.Key, n.numServers()), wire.RemoveOne{Key: m.Key, Config: cfg, Entry: m.Entry})
}

func (partExec) storeBatch(_ *Node, st *store.State, entries []string) {
	logAddMany(st, entries)
}

func (partExec) storeOne(_ *Node, st *store.State, m wire.StoreOne) {
	logAdd(st, entry.Entry(m.Entry))
}

func (partExec) removeOne(_ context.Context, _ *Node, st *store.State, m wire.RemoveOne) func() {
	logRemove(st, entry.Entry(m.Entry))
	return nil
}

// plan: the whole set belongs on the key's single home under m, so a
// node holding it anywhere else — a drain's leaver, a member whose home
// moved with the member count's mod-n, or a member that missed that
// transition while down — offers everything to the home and releases
// its copy once the move is confirmed. The home itself plans nothing:
// the baseline keeps one unreplicated copy, so if the home dies its
// entries are gone and there is no donor. (This is the decay the
// paper's conclusion argues against; the repair benchmark shows it.)
func (partExec) plan(v repairView, m members) ([]repairCandidate, []string) {
	home := PartitionServer(v.key, m.n)
	return homesPlan(v.entries, m, false, func(string) ([]int, int, bool) {
		return []int{home}, 0, true
	})
}

// accept: only the key's home under m may store entries; pushes to
// anyone else are dropped.
func (partExec) accept(st *store.State, p wire.RepairPush, m members) int {
	if m.n <= 0 || PartitionServer(st.Key, m.n) != m.self {
		return 0
	}
	return acceptMissing(st, p.Entries, -1, nil)
}

// PartitionServer returns the single server responsible for a key
// under the traditional hashing baseline (Fig. 1 center).
func PartitionServer(key string, n int) int {
	if n <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}
