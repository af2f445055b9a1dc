// Package routing implements the routing-tree construction phases of the
// RFH algorithm (Section V-A of the paper):
//
//   - Trim (Phase II) turns the all-shortest-paths "fat tree" into a
//     single routing tree while concentrating forwarding workload onto as
//     few posts as possible, so that node deployment can buy those posts
//     high charging efficiency.
//   - MergeSiblings (Phase III) opportunistically re-parents children onto
//     a cheaper-to-reach sibling, concentrating workload further.
//
// Both phases operate on parent vectors over posts 0..N-1 with the base
// station as vertex N, matching package model's conventions.
package routing

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"wrsn/internal/bitset"
	"wrsn/internal/graph"
)

// TrimResult is the outcome of trimming a fat tree.
type TrimResult struct {
	// Parent[u] is the single parent of post u in the trimmed tree (a
	// post index or the DAG's target vertex, i.e. the base station), or
	// -1 for posts excluded by a Trimmer skip mask.
	Parent []int
	// Workload[u] is u's final routing workload: the number of its
	// descendants in the trimmed tree (the paper's Phase-II metric;
	// excludes u itself). Zero for skipped posts.
	Workload []int
	// Deleted counts the fat-tree edges removed during trimming.
	Deleted int
}

// ErrNotAFatTree is returned when the DAG misses a parent for some post,
// i.e. the target is unreachable from it.
var ErrNotAFatTree = errors.New("routing: post cannot reach the base station in the fat tree")

// Trim implements Phase II of RFH. Starting from the all-shortest-paths
// DAG toward the base station, it repeatedly takes the unprocessed post
// with the largest routing workload (its descendant count under the
// current edge set) and forces all of its descendants to route inside its
// subtree: every edge from a descendant to a parent that is neither the
// head post nor one of its descendants is deleted. Workloads of affected
// posts are recomputed and the priority queue reordered, exactly as the
// paper prescribes. Any post still holding several parents afterwards
// resolves to its highest-workload parent (lowest index on ties), which
// also makes the result deterministic.
//
// Every surviving path is a fat-tree path, so each post's tree path cost
// equals its Phase-I shortest-path distance — trimming chooses among
// minimum-energy routes, it never leaves them (property-tested).
func Trim(dag *graph.DAG, nPosts int) (*TrimResult, error) {
	return TrimWeighted(dag, nPosts, nil)
}

// TrimWeighted is Trim with heterogeneous traffic: rates[i] is post i's
// report rate, and a post's routing workload becomes the summed rate of
// its descendants rather than their count, so concentration favours the
// posts that actually carry the most bits. nil rates reproduce Trim (the
// paper's uniform model). TrimResult.Workload still reports descendant
// counts.
func TrimWeighted(dag *graph.DAG, nPosts int, rates []float64) (*TrimResult, error) {
	if nPosts >= 0 {
		t := NewTrimmer(nPosts)
		res := &TrimResult{}
		if err := t.Trim(dag, rates, nil, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	return nil, fmt.Errorf("routing: negative post count %d", nPosts)
}

// Trimmer runs Phase-II trims repeatedly without re-allocating: the
// parent-list arena, reachability bitsets, workload heap and BFS buffers
// all persist across calls. The iterative callers (RFH's per-round
// re-trim, heal's per-repair re-trim) use one Trimmer for the life of a
// problem instance; its steady state is allocation-free.
//
// A Trimmer additionally supports a skip mask for degraded networks:
// skipped posts (dead or stranded survivors) are excluded from the trim
// entirely — they need no fat-tree parent, accumulate no workload, and
// get Parent = -1 in the result.
type Trimmer struct {
	n          int
	par        [][]int
	sorter     distSorter
	reach      []*bitset.Set
	load       []float64
	h          *graph.IndexedMinHeap
	childCount []int
	queue      []int
}

// distSorter sorts the active-post order by decreasing DAG distance,
// ties broken by ascending index — a total order, so every sort
// algorithm yields the same permutation. It is a named type (not a
// sort.Slice closure) so sorting stays allocation-free.
type distSorter struct {
	order []int
	dist  []float64
}

func (s *distSorter) Len() int      { return len(s.order) }
func (s *distSorter) Swap(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
func (s *distSorter) Less(i, j int) bool {
	da, db := s.dist[s.order[i]], s.dist[s.order[j]]
	if da != db {
		return da > db
	}
	return s.order[i] < s.order[j]
}

// NewTrimmer returns a Trimmer for fat trees over nPosts posts (base
// station = vertex nPosts).
func NewTrimmer(nPosts int) *Trimmer {
	if nPosts < 0 {
		nPosts = 0
	}
	t := &Trimmer{
		n:          nPosts,
		par:        make([][]int, nPosts),
		reach:      make([]*bitset.Set, nPosts),
		load:       make([]float64, nPosts),
		h:          graph.NewIndexedMinHeap(nPosts),
		childCount: make([]int, nPosts),
		queue:      make([]int, 0, nPosts),
	}
	t.sorter.order = make([]int, 0, nPosts)
	for u := range t.reach {
		t.reach[u] = bitset.New(nPosts)
	}
	return t
}

// resizeInts returns buf resliced to length n, reallocating only when
// capacity is insufficient.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// Trim trims dag into dst, reusing dst's slices when they have capacity.
// rates follows TrimWeighted; skip, when non-nil, marks posts to exclude
// (see the type comment). Skipped posts must not appear in any active
// post's DAG parent list.
func (t *Trimmer) Trim(dag *graph.DAG, rates []float64, skip []bool, dst *TrimResult) error {
	nPosts := t.n
	if dag == nil {
		return errors.New("routing: nil DAG")
	}
	if nPosts >= len(dag.Parents)+1 || dag.Target != nPosts {
		return fmt.Errorf("routing: DAG target %d does not match post count %d", dag.Target, nPosts)
	}
	if rates != nil && len(rates) != nPosts {
		return fmt.Errorf("routing: %d rates for %d posts", len(rates), nPosts)
	}
	if skip != nil && len(skip) != nPosts {
		return fmt.Errorf("routing: skip mask covers %d posts, want %d", len(skip), nPosts)
	}
	active := func(u int) bool { return skip == nil || !skip[u] }

	// Mutable copy of each active post's parent list (arena slices are
	// reused across calls via [:0]).
	for u := 0; u < nPosts; u++ {
		t.par[u] = t.par[u][:0]
		if !active(u) {
			continue
		}
		if len(dag.Parents[u]) == 0 {
			return fmt.Errorf("%w: post %d", ErrNotAFatTree, u)
		}
		t.par[u] = append(t.par[u], dag.Parents[u]...)
	}

	// Topological order for the reachability DP: descendants have
	// strictly larger distance-to-target (edge weights are positive), so
	// processing posts by decreasing distance finalises every child
	// before its parents.
	order := t.sorter.order[:0]
	for u := 0; u < nPosts; u++ {
		if active(u) {
			order = append(order, u)
		}
	}
	t.sorter.order = order
	t.sorter.dist = dag.Dist
	sort.Sort(&t.sorter)

	// reach[u] = set of posts that can reach u via current parent edges
	// (u's descendants). load[u] = summed rate over reach[u] (== the
	// descendant count for unit rates), the paper's routing workload.
	recompute := func() {
		for _, u := range order {
			t.reach[u].Reset()
		}
		// Children-first order: push each u into all of its parents.
		for _, u := range order {
			for _, q := range t.par[u] {
				if q == nPosts {
					continue // base station accumulates no workload
				}
				t.reach[q].Set(u)
				t.reach[q].UnionWith(t.reach[u])
			}
		}
		for _, u := range order {
			if rates == nil {
				t.load[u] = float64(t.reach[u].Count())
				continue
			}
			sum := 0.0
			t.reach[u].ForEach(func(d int) { sum += rates[d] })
			t.load[u] = sum
		}
	}
	recompute()

	// Max-heap by workload via negated priorities; ties pop the lowest
	// post index (IndexedMinHeap's deterministic tie-break).
	h := t.h
	h.Reset()
	for _, u := range order {
		h.Push(u, -t.load[u])
	}

	dst.Deleted = 0
	dst.Parent = resizeInts(dst.Parent, nPosts)
	for h.Len() > 0 {
		p, _ := h.Pop()
		changed := false
		t.reach[p].ForEach(func(d int) {
			kept := t.par[d][:0]
			for _, q := range t.par[d] {
				if q == p || (q != nPosts && t.reach[p].Test(q)) {
					kept = append(kept, q)
				} else {
					dst.Deleted++
					changed = true
				}
			}
			t.par[d] = kept
		})
		if changed {
			recompute()
			for _, u := range order {
				if h.Contains(u) {
					h.Push(u, -t.load[u])
				}
			}
		}
	}

	// Resolve any residual multi-parent posts deterministically.
	for u := 0; u < nPosts; u++ {
		if !active(u) {
			dst.Parent[u] = -1
			continue
		}
		if len(t.par[u]) == 0 {
			// Cannot happen: every descendant keeps at least the first
			// hop of one surviving path (see package doc); defensive.
			return fmt.Errorf("%w: post %d lost all parents during trim", ErrNotAFatTree, u)
		}
		// Highest-workload parent wins; the base station counts as -Inf
		// so a tied post parent is preferred (keeps workload
		// concentrated). Parent lists are in ascending vertex order, so
		// ties resolve to the lowest index deterministically.
		best := t.par[u][0]
		for _, q := range t.par[u][1:] {
			if wl(q, t.load, nPosts) > wl(best, t.load, nPosts) {
				best = q
			}
		}
		dst.Parent[u] = best
	}

	// Final workloads (descendant counts) on the resolved tree.
	dst.Workload = treeWorkloads(dst.Parent, skip, dst.Workload, t.queue, t.childCount)
	return nil
}

// wl returns the routing load of vertex q, treating the base station as
// -Inf so posts always win ties against it.
func wl(q int, load []float64, nPosts int) float64 {
	if q == nPosts {
		return math.Inf(-1)
	}
	return load[q]
}

// treeWorkloads returns each active post's descendant count in the tree
// given by the parent vector (base station = len(parent), -1 = no
// parent), written into w (resized to len(parent)). Skipped posts must
// have no active children, as Trim requires; they then count as no
// one's descendant and keep workload 0. order and pending are
// graph.LeavesFirst's buffers; with capacity len(parent) the call
// allocates nothing.
func treeWorkloads(parent []int, skip []bool, w, order, pending []int) []int {
	n := len(parent)
	w = resizeInts(w, n)
	clear(w)
	for _, v := range graph.LeavesFirst(parent, skip, order, pending) {
		if p := parent[v]; p >= 0 && p < n {
			w[p] += w[v] + 1
		}
	}
	return w
}

// PathCost returns the total edge cost of post u's path to the target in
// the tree given by parent, pricing each hop with edgeCost. It returns
// NaN if the walk exceeds nPosts hops (a cycle), which validation
// elsewhere should have excluded.
func PathCost(parent []int, nPosts, u int, edgeCost func(from, to int) float64) float64 {
	var total float64
	v := u
	for hops := 0; v != nPosts; hops++ {
		if hops > nPosts {
			return math.NaN()
		}
		next := parent[v]
		total += edgeCost(v, next)
		v = next
	}
	return total
}
