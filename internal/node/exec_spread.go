package node

import (
	"repro/internal/topo"
	"repro/internal/wire"
)

// Zone-spread placement (wire.Config.ZoneSpread). The per-entry-home
// schemes — Hash-y and MultiProbe-y — are the ones where all y copies
// of an entry can collapse into one failure domain, so they are the
// ones that resolve homes through topo.Topology.SpreadAssign here:
//
//   - Hash-y's mod-n assignment is zone-blind, so it is the scheme the
//     spread mode exists for.
//   - MultiProbe-y's ring points are zone-blind too; spread trades the
//     ring's minimal-movement property for failure-domain diversity
//     (the trade the zone-bench measures).
//
// The other five keep their base placement under the flag, each for a
// structural reason:
//
//   - FullReplication stores every entry on every server: already in
//     every zone by construction.
//   - Fixed-x broadcasts and lets each receiver keep a prefix of size
//     x; every server holds copies, so every zone with a member does.
//   - RandomServer-x likewise broadcasts (receivers sample x locally),
//     and redirecting its RNG-driven sampling through the topology
//     would break the seeded-stream discipline; its copies already
//     land in every zone.
//   - Round-y places windows of y consecutive server ids. Zone
//     diversity comes from numbering instead: topo.Uniform assigns ids
//     round-robin across racks, so any y <= numRacks consecutive ids
//     already span y distinct racks without changing the protocol.
//   - KeyPartition stores each key unreplicated on a single
//     hash-chosen server; with one copy there is nothing to spread,
//     and survival under a zone partition requires a replicating
//     scheme.
//
// Consistency contract: an entry's homes must be computed identically
// at placement, add/delete, reconciliation (plan and accept, for
// repair and rebalance alike), and by the plstest invariant checker.
// HomesFor is that single point of truth; every one of those paths
// calls it. Spread is active only when the topology covers exactly the
// current member count — during a join/drain window where it does not,
// every path falls back to the base assignment together, and the next
// epoch-gated repair sweep re-homes entries once the topology catches
// up.

// HomesFor returns the servers entry v lives on under cfg in a
// cluster of n servers: the scheme's base assignment, or the
// topology's zone-spread assignment when cfg.ZoneSpread is set and tp
// covers the cluster. Schemes without per-entry deterministic homes
// return nil. Exported so plstest computes homes exactly as the
// executors do.
func HomesFor(v string, cfg wire.Config, n int, tp *topo.Topology) []int {
	switch cfg.Scheme {
	case wire.Hash:
		if spreadActive(cfg, n, tp) {
			return tp.SpreadAssign(v, cfg.Y, cfg.Seed)
		}
		return HashAssign(v, cfg.Y, n, cfg.Seed)
	case wire.MultiProbe:
		if spreadActive(cfg, n, tp) {
			return tp.SpreadAssign(v, cfg.Y, cfg.Seed)
		}
		return MultiProbeAssign(v, cfg.Y, n, cfg.Seed)
	default:
		return nil
	}
}

// spreadActive reports whether the zone-spread assignment applies: the
// config asks for it and the topology covers exactly the current
// member count (mid-join/drain the counts disagree, and everyone must
// fall back to base assignment together).
func spreadActive(cfg wire.Config, n int, tp *topo.Topology) bool {
	return cfg.ZoneSpread && tp != nil && tp.N() == n
}

// isHome reports whether server id is one of entry v's homes under
// cfg — the acceptance-rule counterpart of HomesFor.
func isHome(v string, cfg wire.Config, n, id int, tp *topo.Topology) bool {
	for _, t := range HomesFor(v, cfg, n, tp) {
		if t == id {
			return true
		}
	}
	return false
}
