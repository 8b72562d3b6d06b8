package node

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/wire"
)

// Dynamic membership. A MembershipUpdate commits a one-node transition
// (a join or a drain) cluster-wide; on receipt every member runs a
// rebalance sweep — repair.go's reconcileKey pointed at the post-change
// membership instead of the unchanged one. The same disciplines carry
// over verbatim:
//
//   - No RNG. Plans move existing entries at existing positions, so a
//     seeded lookup stream reads byte-identically before and after a
//     rebalance, and join-then-drain returns the cluster to exactly
//     the state it started in.
//   - Everything through logAdd/logRemove inside Update, so moved
//     entries are WAL-logged and a coordinator crash mid-rebalance
//     recovers to a state the next sweep completes from.
//
// Rank space: plans are computed against the post-change membership.
// During a drain the leaver is still physically attached (its slot is
// compacted only after every member acked), so a post-change rank r
// maps to transport slot r when r < leaving and r+1 otherwise; during
// a join ranks and slots coincide. memberChange carries the mapping.
//
// Repair sweeps keep running through a transition, but they release
// nothing while one is in flight on the sweeping node (seenEpoch ahead
// of compactedEpoch; a leaver never catches up). Mid-transition the
// node's id and transport view may disagree with its peers' — the old
// home of a key is the new home's stray, and the other way round — so
// two nodes could each drop their copy on the strength of the other's.
// The release-after-confirm rule is only sound within one shared view.

// MembershipManager serves cluster-level join/drain requests arriving
// over the wire (KindJoin / KindLeave). The host that owns the member
// list — cluster.Cluster in simulations, the plsd daemon's controller
// on TCP — installs one on its node via SetMembership.
type MembershipManager interface {
	// Join admits the server at addr and returns the committed update
	// (its Addrs give the joiner the full member list).
	Join(ctx context.Context, addr string) (wire.MembershipUpdate, error)
	// Leave drains the given server and removes it from the cluster.
	Leave(ctx context.Context, server int) error
}

// memberChange is a committed transition in post-change rank space.
// Repair sweeps use the degenerate one, repairMembership.
type memberChange struct {
	epoch   uint64
	oldN    int
	newN    int
	joined  []int // post-change slots of joiners (rank == slot)
	leaving int   // pre-change slot of the leaver, -1 for a join
	// mark, on an unchanged membership, is the sweeping node's
	// transition state when the membership was read; repair releases
	// only while it holds (see settledAt).
	mark transitionMark
}

func changeOf(m wire.MembershipUpdate) memberChange {
	return memberChange{epoch: m.Epoch, oldN: m.OldN, newN: m.NewN, joined: m.Joined, leaving: m.Leaving}
}

// repairMembership is the no-op transition a repair sweep reconciles
// against: this node's current view, unchanged. The transition mark is
// read before the view, so a transition landing in between shows up as
// a changed mark at release time.
func (n *Node) repairMembership() memberChange {
	mark := n.transitionMark()
	size := n.numServers()
	return memberChange{oldN: size, newN: size, leaving: -1, mark: mark}
}

// transitionMark is a node's membership-transition state at one
// instant (see Node.seenEpoch).
type transitionMark struct{ seen, settled uint64 }

func (n *Node) transitionMark() transitionMark {
	seen := n.seenEpoch.Load()
	return transitionMark{seen: seen, settled: n.compactedEpoch.Load()}
}

// settledAt reports that no transition was in flight on this node when
// m was taken and none has begun since: the view a repair sweep
// planned in is still the one its peers share.
func (n *Node) settledAt(m transitionMark) bool {
	return m.seen <= m.settled && n.transitionMark() == m
}

// raiseEpoch stores e in a unless a already holds a later epoch.
func raiseEpoch(a *atomic.Uint64, e uint64) {
	for {
		cur := a.Load()
		if e <= cur || a.CompareAndSwap(cur, e) {
			return
		}
	}
}

// unchanged reports whether mc is a no-op transition, which a valid
// MembershipUpdate never is: a join grows the cluster, a drain shrinks
// it.
func (mc memberChange) unchanged() bool {
	return mc.oldN == mc.newN && mc.leaving < 0
}

// pushN is the cluster size mc's pushes name: 0 on the unchanged
// membership, which receivers evaluate in their own current view.
func (mc memberChange) pushN() int {
	if mc.unchanged() {
		return 0
	}
	return mc.newN
}

// slotOf maps a post-change rank to the transport slot it occupies
// while the transition is in flight (the leaver still attached).
func (mc memberChange) slotOf(rank int) int {
	if mc.leaving < 0 || rank < mc.leaving {
		return rank
	}
	return rank + 1
}

// rankOf maps a transport slot to its post-change rank; -1 for the
// leaver, which has no place in the new membership.
func (mc memberChange) rankOf(slot int) int {
	if mc.leaving < 0 {
		return slot
	}
	switch {
	case slot == mc.leaving:
		return -1
	case slot < mc.leaving:
		return slot
	default:
		return slot - 1
	}
}

func validateMembershipUpdate(m wire.MembershipUpdate) error {
	switch {
	case m.OldN < 1 || m.NewN < 1:
		return fmt.Errorf("node: membership update with empty cluster (oldN=%d newN=%d)", m.OldN, m.NewN)
	case m.Leaving >= 0:
		if m.Leaving >= m.OldN || m.NewN != m.OldN-1 || len(m.Joined) != 0 {
			return fmt.Errorf("node: malformed leave update (oldN=%d newN=%d leaving=%d joined=%v)",
				m.OldN, m.NewN, m.Leaving, m.Joined)
		}
	default:
		if m.NewN != m.OldN+len(m.Joined) || len(m.Joined) == 0 {
			return fmt.Errorf("node: malformed join update (oldN=%d newN=%d joined=%v)", m.OldN, m.NewN, m.Joined)
		}
		for i, s := range m.Joined {
			if s != m.OldN+i {
				return fmt.Errorf("node: join update with non-contiguous slots %v", m.Joined)
			}
		}
	}
	return nil
}

// handleMembershipUpdate commits a transition on this member: adopt
// the epoch (at-or-below the current one is a replayed broadcast and
// acks as a no-op), let the host adjust its transport view, then sweep
// every key synchronously — the Ack tells the coordinator this member
// has finished moving its share.
func (n *Node) handleMembershipUpdate(ctx context.Context, m wire.MembershipUpdate) wire.Message {
	if err := validateMembershipUpdate(m); err != nil {
		return wire.Ack{Err: err.Error()}
	}
	for {
		cur := n.memberEpoch.Load()
		if m.Epoch <= cur {
			return wire.Ack{} // already applied (double join, re-broadcast)
		}
		if n.memberEpoch.CompareAndSwap(cur, m.Epoch) {
			break
		}
	}
	raiseEpoch(&n.seenEpoch, m.Epoch)
	if m.Leaving >= 0 && n.ID() == m.Leaving {
		n.leaving.Store(true)
	}
	n.peersMu.RLock()
	hook := n.memberHook
	n.peersMu.RUnlock()
	if hook != nil {
		hook(m)
	}
	// This member's share of the transition: every key reconciled
	// against the post-change membership.
	stats := n.sweep(ctx, changeOf(m), nil)
	n.lastRebalance.Store(&stats)
	n.peersMu.RLock()
	applied := n.appliedHook
	n.peersMu.RUnlock()
	if applied != nil {
		applied(m)
	}
	if m.Leaving < 0 {
		// A join compacts nothing: this node's view is final once its
		// own sweep is done. A drain waits for MarkCompacted.
		raiseEpoch(&n.compactedEpoch, m.Epoch)
	}
	return wire.Ack{}
}

// handleJoin admits a new member on behalf of a remote joiner; the
// reply is the committed MembershipUpdate (whose Addrs carry the full
// post-join member list), or an error Ack when no manager is
// installed or admission failed.
func (n *Node) handleJoin(ctx context.Context, m wire.Join) wire.Message {
	n.peersMu.RLock()
	mgr := n.membership
	n.peersMu.RUnlock()
	if mgr == nil {
		return wire.Ack{Err: "node: no membership manager installed"}
	}
	if m.Addr == "" {
		return wire.Ack{Err: "node: join with empty address"}
	}
	update, err := mgr.Join(ctx, m.Addr)
	if err != nil {
		return wire.Ack{Err: "node: join: " + err.Error()}
	}
	return update
}

// handleLeave drains a member on behalf of a remote operator.
func (n *Node) handleLeave(ctx context.Context, m wire.Leave) wire.Message {
	n.peersMu.RLock()
	mgr := n.membership
	n.peersMu.RUnlock()
	if mgr == nil {
		return wire.Ack{Err: "node: no membership manager installed"}
	}
	if err := mgr.Leave(ctx, m.Server); err != nil {
		return wire.Ack{Err: "node: leave: " + err.Error()}
	}
	return wire.Ack{}
}

// SetMembership installs the host's membership manager, making this
// node able to serve Join/Leave requests from the wire.
func (n *Node) SetMembership(m MembershipManager) {
	n.peersMu.Lock()
	n.membership = m
	n.peersMu.Unlock()
}

// OnMembershipChange installs a hook run when a MembershipUpdate
// commits on this node, before its rebalance sweep — the host's chance
// to resize its transport view (the plsd daemon re-points its client
// at the new address list here) so the sweep sees the new topology.
func (n *Node) OnMembershipChange(hook func(wire.MembershipUpdate)) {
	n.peersMu.Lock()
	n.memberHook = hook
	n.peersMu.Unlock()
}

// OnMembershipApplied installs a hook run after this node's rebalance
// sweep for a committed update finishes, just before it acks. The
// sweep addresses peers in pre-compaction slot space (the leaver still
// attached), so a host that owns its own transport view — the plsd
// daemon — must wait until here to drop the leaver's slot, renumber
// itself, and, if it is the leaver, begin its own shutdown.
func (n *Node) OnMembershipApplied(hook func(wire.MembershipUpdate)) {
	n.peersMu.Lock()
	n.appliedHook = hook
	n.peersMu.Unlock()
}

// SetID renumbers the node after the host compacts transport slots
// (a drain removes the leaver's slot, shifting higher ids down).
func (n *Node) SetID(id int) { n.id.Store(int64(id)) }

// MarkCompacted records that the host has applied the given epoch's
// slot compaction to its transport view (and renumbered this node via
// SetID). From here on, same-epoch rebalance pushes treat this node's
// id as already being in post-change rank space, and repair sweeps may
// release again.
func (n *Node) MarkCompacted(epoch uint64) {
	raiseEpoch(&n.compactedEpoch, epoch)
}

// MemberEpoch returns the last membership epoch this node committed.
func (n *Node) MemberEpoch() uint64 { return n.memberEpoch.Load() }

// LastRebalance returns the stats of the node's most recent rebalance
// sweep, or false if it has never rebalanced.
func (n *Node) LastRebalance() (SweepStats, bool) {
	p := n.lastRebalance.Load()
	if p == nil {
		return SweepStats{}, false
	}
	return *p, true
}
