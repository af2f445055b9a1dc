package graph

import (
	"fmt"
	"math"
)

// Router runs repeated shortest-path queries over one Graph without
// re-allocating the Dijkstra state: the indexed heap is recycled through
// Reset(), the distance vector is overwritten in place, and the DAG's
// parent lists are truncated and refilled. It exists for the iterative
// callers (RFH reweights edges between rounds, heal re-masks vertices
// between repairs) that previously rebuilt graph + heap + DAG per
// iteration.
//
// A Router is not safe for concurrent use, and the slices returned by
// DistancesTo/DAGTo are owned by the Router: they are valid only until
// the next query.
type Router struct {
	g       *Graph
	h       *IndexedMinHeap
	dist    []float64
	dag     DAG
	mask    []bool
	settled int64
}

// NewRouter returns a Router over g. The graph's vertex count must not
// change afterwards (edge weights may, via ReweightEdges).
func NewRouter(g *Graph) *Router {
	n := g.NumVertices()
	r := &Router{
		g:    g,
		h:    NewIndexedMinHeap(n),
		dist: make([]float64, n),
	}
	r.dag.Dist = r.dist
	r.dag.Parents = make([][]int, n)
	return r
}

// SetVertexMask excludes vertices from subsequent queries: a vertex v
// with mask[v] == true is treated as removed (its distance is
// Unreachable and no path routes through it). The Router keeps a
// reference to mask, so the caller may flip entries between queries; nil
// clears the mask.
func (r *Router) SetVertexMask(mask []bool) error {
	if mask != nil && len(mask) != r.g.NumVertices() {
		return fmt.Errorf("graph: mask covers %d vertices, want %d", len(mask), r.g.NumVertices())
	}
	r.mask = mask
	return nil
}

// Settled returns the total number of Dijkstra vertex settlements (heap
// pops of a vertex at its final distance) across every query run on this
// Router — the natural "evaluation" count for iterative shortest-path
// solvers.
func (r *Router) Settled() int64 { return r.settled }

func (r *Router) masked(v int) bool { return r.mask != nil && r.mask[v] }

// DistancesTo computes, for every vertex u, the cost of the cheapest
// directed path u -> ... -> target (following edge directions), or
// Unreachable if none exists, into the Router's reusable buffers: one
// Dijkstra run over the reversed graph, O((V+E) log V). The returned
// slice is owned by the Router.
func (r *Router) DistancesTo(target int) ([]float64, error) {
	n := r.g.NumVertices()
	if target < 0 || target >= n {
		return nil, fmt.Errorf("%w: %d", ErrTargetOutOfRange, target)
	}
	if r.masked(target) {
		return nil, fmt.Errorf("graph: target vertex %d is masked", target)
	}
	g := r.g
	dist := r.dist
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[target] = 0
	h := r.h
	h.Reset()
	h.Push(target, 0)
	for h.Len() > 0 {
		v, dv := h.Pop()
		if dv > dist[v] {
			continue
		}
		r.settled++
		for s := g.rOff[v]; s < g.rOff[v+1]; s++ {
			u := int(g.rSrc[s])
			if r.masked(u) {
				continue
			}
			if nd := dv + g.fW[g.rFwd[s]]; nd < dist[u] {
				dist[u] = nd
				h.Push(u, nd)
			}
		}
	}
	return dist, nil
}

// DAGTo computes the all-shortest-paths DAG toward target (see
// Graph.ShortestPathDAG), reusing the Router's buffers (parent lists
// keep their capacity across calls). Masked vertices have Unreachable
// distance and empty parent lists, and never appear in any parent list.
// The returned DAG is owned by the Router and valid until the next
// query.
func (r *Router) DAGTo(target int, tol float64) (*DAG, error) {
	if tol < 0 {
		return nil, fmt.Errorf("graph: negative tolerance %g", tol)
	}
	dist, err := r.DistancesTo(target)
	if err != nil {
		return nil, err
	}
	g := r.g
	r.dag.Target = target
	parents := r.dag.Parents
	for u := range parents {
		parents[u] = parents[u][:0]
	}
	for u := 0; u < g.n; u++ {
		if u == target || math.IsInf(dist[u], 1) || r.masked(u) {
			continue
		}
		for s := g.fOff[u]; s < g.fOff[u+1]; s++ {
			v := int(g.fDst[s])
			if math.IsInf(dist[v], 1) || r.masked(v) {
				continue
			}
			if math.Abs(dist[u]-(g.fW[s]+dist[v])) <= tol {
				parents[u] = append(parents[u], v)
			}
		}
	}
	return &r.dag, nil
}
