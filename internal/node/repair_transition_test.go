package node_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/plstest"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// alwaysSweep is a repair health source under which every SweepOnce
// runs: nothing is presumed dead and the failure epoch advances on
// every read.
type alwaysSweep struct{ epoch atomic.Uint64 }

func (h *alwaysSweep) PresumedDead() []bool { return nil }
func (h *alwaysSweep) FailureEpoch() uint64 { return h.epoch.Add(1) }

// viewCaller is one node's private view of a shared in-process
// transport, as each plsd daemon owns its own client: size is the
// member count this node currently believes in, and after, when set,
// runs once each call this node sends has returned.
type viewCaller struct {
	*transport.Inproc
	size  int
	after func(server int, msg wire.Message)
}

func (c *viewCaller) NumServers() int { return c.size }

func (c *viewCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	reply, err := c.Inproc.Call(ctx, server, msg)
	if c.after != nil {
		c.after(server, msg)
	}
	return reply, err
}

// transitionRig is n nodes on one transport, each with its own view.
type transitionRig struct {
	t     *testing.T
	tr    *transport.Inproc
	nodes []*node.Node
	views []*viewCaller
}

func newTransitionRig(t *testing.T, slots, size int) *transitionRig {
	rig := &transitionRig{t: t, tr: transport.NewInproc(slots)}
	rng := stats.NewRNG(61)
	for i := 0; i < slots; i++ {
		nd := node.New(i, rng.Split())
		v := &viewCaller{Inproc: rig.tr, size: size}
		nd.Attach(v)
		nd.OnMembershipChange(func(m wire.MembershipUpdate) {
			if m.Leaving < 0 {
				v.size = m.NewN // a join grows the view before the sweep
			}
		})
		rig.tr.Bind(i, nd)
		rig.nodes = append(rig.nodes, nd)
		rig.views = append(rig.views, v)
	}
	return rig
}

func (rig *transitionRig) call(server int, msg wire.Message) wire.Message {
	rig.t.Helper()
	reply, err := rig.tr.Call(context.Background(), server, msg)
	if err != nil {
		rig.t.Fatalf("Call(%d, %T): %v", server, msg, err)
	}
	if ack, ok := reply.(wire.Ack); ok && ack.Err != "" {
		rig.t.Fatalf("Call(%d, %T): %s", server, msg, ack.Err)
	}
	return reply
}

// sweepAfterPush makes the pusher run one repair sweep on target right
// after its first rebalance push to target returns — the moment the
// target holds the pushed copies but has not committed the transition
// itself, while the pusher has yet to release its own.
func (rig *transitionRig) sweepAfterPush(pusher, target int) *bool {
	swept := new(bool)
	rig.views[pusher].after = func(server int, msg wire.Message) {
		if p, ok := msg.(wire.RepairPush); !ok || p.NewN == 0 || server != target || *swept {
			return
		}
		*swept = true
		r := node.NewRepairer(rig.nodes[target], node.RepairOptions{Health: &alwaysSweep{}})
		r.SweepOnce(context.Background())
	}
	return swept
}

// partitionKey returns a key whose KeyPartition home differs between
// the two member counts.
func partitionKey(t *testing.T, n1, n2 int) string {
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		if node.PartitionServer(k, n1) != node.PartitionServer(k, n2) {
			return k
		}
	}
	t.Fatal("no key changes partition home")
	return ""
}

// A repair sweep that runs on a member caught between a faster
// member's rebalance push and its own commit plans in the old view,
// where the pusher is still the home. It must not release the pushed
// copies on the strength of the pusher's copy: the pusher releases its
// own as soon as the push is acknowledged, and the KeyPartition set
// would be gone from both. Join: the heir's view still has the old
// size. Drain: every survivor keeps the old slots until compaction, and
// the leaver refuses to vouch for its copies.
func TestRepairReleasesNothingMidTransition(t *testing.T) {
	cfg := wire.Config{Scheme: wire.KeyPartition}
	entries := entry.Synthetic(30)
	es := make([]string, len(entries))
	for i, v := range entries {
		es[i] = string(v)
	}

	t.Run("join", func(t *testing.T) {
		const n = 5
		rig := newTransitionRig(t, n+1, n)
		rig.views[n].size = n + 1 // the joiner starts with the full list
		key := partitionKey(t, n, n+1)
		home, heir := node.PartitionServer(key, n), node.PartitionServer(key, n+1)
		rig.call(home, wire.Place{Key: key, Config: cfg, Entries: es})

		swept := rig.sweepAfterPush(home, heir)
		m := wire.MembershipUpdate{Epoch: 1, OldN: n, NewN: n + 1, Joined: []int{n}, Leaving: -1}
		rig.call(home, m) // the coordinator commits first
		for s := 0; s <= n; s++ {
			rig.call(s, m)
		}
		if !*swept {
			t.Fatalf("home %d never pushed to heir %d", home, heir)
		}
		if got := rig.nodes[heir].LocalSet(key).Len(); got != len(entries) {
			t.Fatalf("heir %d holds %d of %d entries after the join", heir, got, len(entries))
		}
	})

	t.Run("drain", func(t *testing.T) {
		const n = 5
		rig := newTransitionRig(t, n, n)
		key := partitionKey(t, n, n-1)
		leaver := node.PartitionServer(key, n)
		heir := node.PartitionServer(key, n-1) // post-change rank
		if heir >= leaver {
			heir++ // its slot while the leaver is still attached
		}
		rig.call(leaver, wire.Place{Key: key, Config: cfg, Entries: es})

		swept := rig.sweepAfterPush(leaver, heir)
		m := wire.MembershipUpdate{Epoch: 1, OldN: n, NewN: n - 1, Leaving: leaver}
		rig.call(leaver, m) // the leaver sweeps first
		if !*swept {
			t.Fatalf("leaver %d never pushed to heir %d", leaver, heir)
		}
		if qr, ok := rig.call(leaver, wire.RepairQuery{Key: key, Entries: es[:1]}).(wire.RepairQueryReply); !ok || qr.Err == "" {
			t.Errorf("leaver answered a repair query after committing its drain: %+v", qr)
		}
		if pr, ok := rig.call(leaver, wire.RepairPush{Key: key, Config: cfg, Entries: es[:1]}).(wire.RepairPushReply); !ok || pr.Err == "" {
			t.Errorf("leaver took a repair push after committing its drain: %+v", pr)
		}
		for s := 0; s < n; s++ {
			if s != leaver {
				rig.call(s, m)
			}
		}
		rig.tr.Remove(leaver)
		for s, nd := range rig.nodes {
			rig.views[s].size = n - 1
			if s > leaver {
				nd.SetID(s - 1)
			}
			nd.MarkCompacted(m.Epoch)
		}
		if got := rig.nodes[heir].LocalSet(key).Len(); got != len(entries) {
			t.Fatalf("heir holds %d of %d entries after the drain", got, len(entries))
		}
	})
}

// Repair sweeps keep running while the cluster joins a member and then
// drains another: every original survivor sweeps in a loop throughout.
// No entry may be lost, and once the transitions settle one more pass
// must restore every scheme's invariants. Run under -race this also
// checks that sweeps and membership changes share node state safely.
func TestRepairSweepsDuringJoinAndDrain(t *testing.T) {
	ctx := context.Background()
	const leaver = 1
	for name, cfg := range membershipConfigs() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, 5, 83)
			live := h.workload(cfg, 30)
			var repairers []*node.Repairer
			for i := 0; i < h.cl.N(); i++ {
				if i != leaver {
					repairers = append(repairers, node.NewRepairer(h.cl.Node(i), node.RepairOptions{Health: &alwaysSweep{}}))
				}
			}

			// A little latency on every call stretches both sweeps and
			// transitions, so they overlap.
			for i := 0; i < h.cl.N(); i++ {
				h.cl.SetLatency(i, 20*time.Microsecond, 20*time.Microsecond)
			}
			stop := make(chan struct{})
			started := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := 0; ; pass++ {
					for _, r := range repairers {
						select {
						case <-stop:
							return
						default:
						}
						r.SweepOnce(ctx)
					}
					if pass == 0 {
						close(started)
					}
				}
			}()
			<-started
			_, joinErr := h.cl.Join(ctx, stats.NewRNG(907))
			_, drainErr := h.cl.Drain(ctx, leaver)
			close(stop)
			wg.Wait()
			if joinErr != nil || drainErr != nil {
				t.Fatalf("Join: %v, Drain: %v", joinErr, drainErr)
			}

			v := plstest.Observe(h.cl, "k", cfg)
			plstest.Assert(t, "coverage after transitions", v.CheckCoverage(live))
			sweepAll(h.cl)
			v = plstest.Observe(h.cl, "k", cfg)
			plstest.Assert(t, "settled structural", v.Check(live))
			plstest.Assert(t, "settled coverage", v.CheckCoverage(live))
		})
	}
}
