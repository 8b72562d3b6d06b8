package node

import (
	"context"

	"repro/internal/store"
	"repro/internal/topo"
	"repro/internal/wire"
)

// executor is the server-side protocol of one placement strategy: each
// Sec. 5 subsection of the paper becomes one implementation in its own
// exec_*.go file, except that Hash-y and its MultiProbe-y extension
// share homesExec (they differ only in HomesFor). The Node shell
// dispatches to an executor after resolving the key's stored config,
// so a client with a stale config cannot fork a key's strategy.
//
// The first three methods run the initial server S's role and may call
// peers; they are invoked with no key lock held. storeBatch, storeOne
// and removeOne run inside a store.KeyState.Update callback (key
// locked) and must not call peers — removeOne instead returns a
// follow-up to run after the lock is released (the RandomServer
// replacement search). plan and accept are the scheme's one
// reconciliation rule, shared by anti-entropy repair (the unchanged
// membership) and membership rebalance (the post-change one).
type executor interface {
	// place distributes a place(k, {v1..vh}) batch to the cluster.
	place(ctx context.Context, n *Node, m wire.Place) wire.Message
	// add runs the initial server's add(v) protocol for the key.
	add(ctx context.Context, n *Node, ks *store.KeyState, cfg wire.Config, m wire.Add) wire.Message
	// del runs the initial server's delete(v) protocol for the key.
	del(ctx context.Context, n *Node, ks *store.KeyState, cfg wire.Config, m wire.Delete) wire.Message
	// storeBatch applies a place broadcast's local selection rule. The
	// caller has already reset the key (set cleared, ext dropped).
	storeBatch(n *Node, st *store.State, entries []string)
	// storeOne applies a single-entry store's local rule.
	storeOne(n *Node, st *store.State, m wire.StoreOne)
	// removeOne deletes a local copy; a non-nil return value is invoked
	// by the caller once the key lock is released.
	removeOne(ctx context.Context, n *Node, st *store.State, m wire.RemoveOne) func()

	// plan maps this node's local copy of a key onto the transfers a
	// reconciliation sweep should offer peers under membership m
	// (targets are ranks in m), plus the local entries m no longer
	// assigns here, which the sweep releases once a surviving copy is
	// confirmed. Schemes with deterministic homes (Full, Round-y,
	// Hash-y, MultiProbe-y, KeyPartition) offer each entry to its
	// homes and release it where this node is not one; the subset
	// schemes (Fixed-x, RandomServer-x) offer every peer a fill-to-x
	// top-up and release only when this node is leaving. It runs with
	// no key lock held, on a view copied out of the store, and must not
	// consume RNG — reconciliation moves existing entries at existing
	// positions, it never redraws, which is what keeps seeded lookups
	// byte-identical across repair and churn.
	plan(v repairView, m members) (push []repairCandidate, release []string)

	// accept applies a push under the scheme's local acceptance rule
	// (cap at x, legal Round/Hash home, partition ownership), evaluated
	// as member m.self of m. It runs inside Update (key locked), must
	// not call peers or consume RNG, and returns how many entries it
	// stored.
	accept(st *store.State, p wire.RepairPush, m members) int
}

// members is the membership a reconciliation step is evaluated in:
// this node's rank (-1 for a drain's leaver), the member count, and
// the zone topology spread-mode homes resolve against.
type members struct {
	self int
	n    int
	tp   *topo.Topology
}

// execFor returns the executor for a scheme. Keys whose config is still
// schemeless (created by a bare CounterSync, or an add that raced ahead
// of its place) fall back to the replicated executor, whose
// unconditional broadcasts match the monolith's default branches.
func execFor(s wire.Scheme) executor {
	switch s {
	case wire.Fixed:
		return fixedExec{}
	case wire.RandomServer:
		return rsExec{}
	case wire.RoundRobin:
		return roundExec{}
	case wire.Hash, wire.MultiProbe:
		return homesExec{}
	case wire.KeyPartition:
		return partExec{}
	default:
		return fullExec{}
	}
}
