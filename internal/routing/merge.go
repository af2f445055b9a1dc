package routing

import (
	"fmt"
	"sort"

	"wrsn/internal/geom"
)

// MergeSpec carries what MergeSiblings needs to know about the network:
// hop feasibility and per-bit transmit energy between vertices. It is an
// interface-free adapter so the routing package stays decoupled from
// package model (model adapts a Problem to it).
type MergeSpec struct {
	// NPosts is the number of posts; the base station is vertex NPosts.
	NPosts int
	// Pos returns the location of a vertex (post or base station).
	Pos func(v int) geom.Point
	// TxEnergy returns the per-bit transmit energy (nJ) for a hop of
	// distance d, and ok=false when no power level covers d.
	TxEnergy func(d float64) (float64, bool)
	// TxEnergyBetween, when non-nil, replaces TxEnergy with a direct
	// vertex-pair lookup (ok=false when the hop is infeasible). Callers
	// with a cached pairwise energy table (model.CommGraph) use this to
	// skip the distance computation and power-level search per probe.
	TxEnergyBetween func(u, v int) (float64, bool)
	// Skip, when non-nil, excludes posts from the merge entirely: a
	// skipped post is never a head, member or counted child (used for
	// dead/stranded posts during repair, whose stale parent edges are
	// inert and must stay untouched).
	Skip []bool
}

// hopEnergy prices the hop u->v through TxEnergyBetween when available,
// falling back to the distance-based TxEnergy.
func (s *MergeSpec) hopEnergy(u, v int) (float64, bool) {
	if s.TxEnergyBetween != nil {
		return s.TxEnergyBetween(u, v)
	}
	return s.TxEnergy(geom.Dist(s.Pos(u), s.Pos(v)))
}

// MergeStats reports what Phase III changed.
type MergeStats struct {
	// Groups is the number of sibling groups formed (heads with at least
	// one member).
	Groups int
	// Reparented is the number of posts moved under a sibling head.
	Reparented int
}

// MergeSiblings implements Phase III of RFH: for every vertex, children
// that can reach a sibling with strictly cheaper transmit energy than
// their common parent are re-parented onto that sibling (the group
// "head"), concentrating routing workload further. Heads are chosen
// greedily in decreasing-workload order (ties: lower index), so heavier
// posts absorb their cheaper-to-reach siblings; a re-parented member is
// never itself a head. The parent vector is modified in place.
//
// Re-parenting a post under a sibling cannot create a cycle: the head
// remains a child of the original parent, and members' subtrees hang
// intact under the head.
func MergeSiblings(spec MergeSpec, parent []int) (MergeStats, error) {
	n := spec.NPosts
	if len(parent) != n {
		return MergeStats{}, fmt.Errorf("routing: parent vector covers %d posts, want %d", len(parent), n)
	}
	if spec.Skip != nil && len(spec.Skip) != n {
		return MergeStats{}, fmt.Errorf("routing: skip mask covers %d posts, want %d", len(spec.Skip), n)
	}
	skipped := func(u int) bool { return spec.Skip != nil && spec.Skip[u] }

	children := make([][]int, n+1)
	for u := 0; u < n; u++ {
		if skipped(u) {
			continue
		}
		p := parent[u]
		if p < 0 || p > n || p == u {
			return MergeStats{}, fmt.Errorf("routing: post %d has invalid parent %d", u, p)
		}
		children[p] = append(children[p], u)
	}
	workload := treeWorkloads(parent, spec.Skip, nil, nil, nil)

	var stats MergeStats
	for v := 0; v <= n; v++ {
		kids := children[v]
		if len(kids) < 2 {
			continue
		}
		// Candidates in decreasing workload (subtree weight) order.
		ordered := append([]int(nil), kids...)
		sort.Slice(ordered, func(a, b int) bool {
			wa, wb := workload[ordered[a]], workload[ordered[b]]
			if wa != wb {
				return wa > wb
			}
			return ordered[a] < ordered[b]
		})
		assigned := make(map[int]bool, len(ordered))
		for _, head := range ordered {
			if assigned[head] {
				continue
			}
			members := 0
			for _, c := range ordered {
				if c == head || assigned[c] {
					continue
				}
				costToParent, ok := spec.hopEnergy(c, v)
				if !ok {
					return MergeStats{}, fmt.Errorf("routing: post %d cannot reach its parent %d", c, v)
				}
				costToHead, ok := spec.hopEnergy(c, head)
				if !ok || costToHead >= costToParent {
					continue
				}
				parent[c] = head
				assigned[c] = true
				members++
				stats.Reparented++
			}
			if members > 0 {
				assigned[head] = true // heads with members stay put
				stats.Groups++
			}
		}
	}
	return stats, nil
}
