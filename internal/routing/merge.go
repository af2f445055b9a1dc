package routing

import (
	"fmt"
	"sort"
)

// MergeSpec carries what Merger.Merge needs to know about the network:
// hop feasibility and per-bit transmit energy between vertices. It is an
// interface-free adapter so the routing package stays decoupled from
// package model (model adapts a Problem to it).
type MergeSpec struct {
	// NPosts is the number of posts; the base station is vertex NPosts.
	NPosts int
	// TxEnergyBetween returns the per-bit transmit energy (nJ) of the
	// hop u->v, and ok=false when the hop is infeasible. Callers pass
	// model.CommGraph.TxBetween, which reads the problem's communication
	// topology instead of recomputing distances and power levels.
	TxEnergyBetween func(u, v int) (float64, bool)
	// Skip, when non-nil, excludes posts from the merge entirely: a
	// skipped post is never a head, member or counted child (used for
	// dead/stranded posts during repair, whose stale parent edges are
	// inert and must stay untouched).
	Skip []bool
}

// MergeStats reports what Phase III changed.
type MergeStats struct {
	// Groups is the number of sibling groups formed (heads with at least
	// one member).
	Groups int
	// Reparented is the number of posts moved under a sibling head.
	Reparented int
}

// Merger runs Phase-III merges repeatedly without re-allocating: the
// CSR child lists, workload and leaves-first buffers, candidate order
// and assignment marks all persist across calls. The iterative callers
// (RFH's per-round merge, heal's per-repair merge) hold one for the life
// of a problem instance; once its buffers have grown to the post count,
// Merge allocates nothing. The zero value is ready to use.
type Merger struct {
	childOff  []int // v's children are childList[childOff[v]:childOff[v+1]]
	childList []int
	workload  []int
	order     []int
	pending   []int
	sorter    workloadSorter
	assigned  []bool
}

// workloadSorter orders sibling candidates by decreasing workload, ties
// by ascending index — a total order, so every sort algorithm yields the
// same permutation. A named type (not a sort.Slice closure) keeps
// sorting allocation-free.
type workloadSorter struct {
	order    []int
	workload []int
}

func (s *workloadSorter) Len() int      { return len(s.order) }
func (s *workloadSorter) Swap(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
func (s *workloadSorter) Less(i, j int) bool {
	wa, wb := s.workload[s.order[i]], s.workload[s.order[j]]
	if wa != wb {
		return wa > wb
	}
	return s.order[i] < s.order[j]
}

// Merge implements Phase III of RFH: for every vertex, children that
// can reach a sibling with strictly cheaper transmit energy than their
// common parent are re-parented onto that sibling (the group "head"),
// concentrating routing workload further. Heads are chosen greedily in
// decreasing-workload order (ties: lower index), so heavier posts absorb
// their cheaper-to-reach siblings; a re-parented member is never itself
// a head. The parent vector is modified in place.
//
// Re-parenting a post under a sibling cannot create a cycle: the head
// remains a child of the original parent, and members' subtrees hang
// intact under the head.
func (m *Merger) Merge(spec MergeSpec, parent []int) (MergeStats, error) {
	n := spec.NPosts
	if len(parent) != n {
		return MergeStats{}, fmt.Errorf("routing: parent vector covers %d posts, want %d", len(parent), n)
	}
	if spec.Skip != nil && len(spec.Skip) != n {
		return MergeStats{}, fmt.Errorf("routing: skip mask covers %d posts, want %d", len(spec.Skip), n)
	}
	skipped := func(u int) bool { return spec.Skip != nil && spec.Skip[u] }

	// Child lists in CSR form, each in ascending post order: count into
	// off[p+2], prefix-sum, then fill with off[p+1] as p's cursor, which
	// leaves p's children at list[off[p]:off[p+1]].
	m.childOff = resizeInts(m.childOff, n+3)
	off := m.childOff
	clear(off)
	for u := 0; u < n; u++ {
		if skipped(u) {
			continue
		}
		p := parent[u]
		if p < 0 || p > n || p == u {
			return MergeStats{}, fmt.Errorf("routing: post %d has invalid parent %d", u, p)
		}
		off[p+2]++
	}
	for v := 2; v < len(off); v++ {
		off[v] += off[v-1]
	}
	m.childList = resizeInts(m.childList, off[n+2])
	list := m.childList
	for u := 0; u < n; u++ {
		if !skipped(u) {
			list[off[parent[u]+1]] = u
			off[parent[u]+1]++
		}
	}
	m.order, m.pending = resizeInts(m.order, n), resizeInts(m.pending, n)
	m.workload = treeWorkloads(parent, spec.Skip, m.workload, m.order, m.pending)
	m.sorter.workload = m.workload
	if cap(m.assigned) < n {
		m.assigned = make([]bool, n)
	}
	assigned := m.assigned[:n]
	clear(assigned)

	var stats MergeStats
	for v := 0; v <= n; v++ {
		kids := list[off[v]:off[v+1]]
		if len(kids) < 2 {
			continue
		}
		// Candidates in decreasing workload (subtree weight) order.
		m.sorter.order = append(m.sorter.order[:0], kids...)
		sort.Sort(&m.sorter)
		ordered := m.sorter.order
		for _, head := range ordered {
			if assigned[head] {
				continue
			}
			members := 0
			for _, c := range ordered {
				if c == head || assigned[c] {
					continue
				}
				costToParent, ok := spec.TxEnergyBetween(c, v)
				if !ok {
					return MergeStats{}, fmt.Errorf("routing: post %d cannot reach its parent %d", c, v)
				}
				costToHead, ok := spec.TxEnergyBetween(c, head)
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
