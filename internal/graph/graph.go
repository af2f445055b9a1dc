// Package graph provides the directed weighted-graph machinery behind the
// routing algorithms: a frozen struct-of-arrays CSR adjacency structure
// built through an explicit mutable Builder, Dijkstra single-target
// shortest paths, the all-shortest-paths predecessor DAG ("fat tree" in
// the paper's terminology), and a Bellman-Ford reference implementation
// used by the property-based and differential tests.
//
// Edge direction convention: an edge u->v with weight w means "u can send
// one bit to v at cost w". Weights may be asymmetric — with
// recharging-cost weights the sender's and receiver's node counts differ —
// so the graph is directed throughout.
//
// Layout: a Graph stores both directions as compressed sparse rows over
// contiguous slices. The forward direction owns the single weight store
// (fW, indexed by forward slot); the reverse direction maps each reverse
// slot to its forward slot (rFwd), so reweighting touches one array and
// both directions observe it. Per-vertex slot ranges preserve edge
// insertion order in both directions, keeping downstream tie-breaking
// identical to the historical append-based adjacency lists.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// Edge is a directed, weighted edge. It survives as the materialised
// form returned by the allocating Out/In accessors (tests, diagnostics);
// hot paths iterate the CSR slices directly.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a frozen directed graph over vertices 0..N-1 with non-negative
// edge weights (Dijkstra's precondition, enforced by the Builder). Build
// one with a Builder; after Build the edge set is immutable — only edge
// weights may change, via ReweightEdges.
type Graph struct {
	n int

	// Forward CSR: out-edges of u live in slots fOff[u]..fOff[u+1].
	fOff []int32
	fDst []int32
	fW   []float64

	// Reverse CSR: in-edges of v live in slots rOff[v]..rOff[v+1].
	// rSrc[s] is the edge's tail; rFwd[s] is its forward slot, where the
	// weight lives.
	rOff []int32
	rSrc []int32
	rFwd []int32
}

// Builder accumulates edges for a Graph. The zero value is not usable;
// construct with NewBuilder. Build freezes the edge set into CSR form;
// the Builder may be reused afterwards (subsequent AddEdge calls extend
// a fresh edge list for the next Build).
type Builder struct {
	n     int
	src   []int32
	dst   []int32
	w     []float64
	built bool
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n}
}

// NumVertices returns the number of vertices the built graph will have.
func (b *Builder) NumVertices() int { return b.n }

// AddEdge appends the directed edge u->v with weight w. It returns an
// error for out-of-range endpoints, self-loops, negative or non-finite
// weights. Parallel edges are permitted (the cheaper one wins in any
// shortest-path computation). Insertion order is preserved per vertex in
// the built graph, in both directions.
func (b *Builder) AddEdge(u, v int, w float64) error {
	if b.built {
		b.src, b.dst, b.w, b.built = nil, nil, nil, false
	}
	switch {
	case u < 0 || u >= b.n || v < 0 || v >= b.n:
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	case u == v:
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	case w < 0 || math.IsNaN(w) || math.IsInf(w, 0):
		return fmt.Errorf("graph: edge (%d,%d) weight %g must be finite and non-negative", u, v, w)
	}
	b.src = append(b.src, int32(u))
	b.dst = append(b.dst, int32(v))
	b.w = append(b.w, w)
	return nil
}

// AddBoth appends u->v and v->u, both with weight w.
func (b *Builder) AddBoth(u, v int, w float64) error {
	if err := b.AddEdge(u, v, w); err != nil {
		return err
	}
	return b.AddEdge(v, u, w)
}

// Build freezes the accumulated edges into a Graph. The counting sorts
// are stable, so each vertex's slot range lists its edges in insertion
// order — forward by tail, reverse by head — matching the historical
// append-based adjacency exactly.
func (b *Builder) Build() *Graph {
	n, m := b.n, len(b.src)
	g := &Graph{
		n:    n,
		fOff: make([]int32, n+1),
		fDst: make([]int32, m),
		fW:   make([]float64, m),
		rOff: make([]int32, n+1),
		rSrc: make([]int32, m),
		rFwd: make([]int32, m),
	}
	for i := 0; i < m; i++ {
		g.fOff[b.src[i]+1]++
		g.rOff[b.dst[i]+1]++
	}
	for v := 0; v < n; v++ {
		g.fOff[v+1] += g.fOff[v]
		g.rOff[v+1] += g.rOff[v]
	}
	// Stable scatter: fill each row's slots in edge-list order. cursor
	// arrays start at the row offsets and advance.
	fCur := make([]int32, n)
	rCur := make([]int32, n)
	for v := 0; v < n; v++ {
		fCur[v] = g.fOff[v]
		rCur[v] = g.rOff[v]
	}
	for i := 0; i < m; i++ {
		u, v := b.src[i], b.dst[i]
		fs := fCur[u]
		fCur[u] = fs + 1
		g.fDst[fs] = v
		g.fW[fs] = b.w[i]
		rs := rCur[v]
		rCur[v] = rs + 1
		g.rSrc[rs] = u
		g.rFwd[rs] = fs
	}
	b.built = true
	return g
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.fDst) }

// Out materialises the outgoing edges of u in insertion order. It
// allocates; the hot paths (Router, model's evaluators) walk the CSR
// arrays directly.
func (g *Graph) Out(u int) []Edge {
	lo, hi := g.fOff[u], g.fOff[u+1]
	out := make([]Edge, 0, hi-lo)
	for s := lo; s < hi; s++ {
		out = append(out, Edge{To: int(g.fDst[s]), Weight: g.fW[s]})
	}
	return out
}

// In materialises the incoming edges of v (as Edge{To: source, Weight: w})
// in insertion order. It allocates, as Out does.
func (g *Graph) In(v int) []Edge {
	lo, hi := g.rOff[v], g.rOff[v+1]
	in := make([]Edge, 0, hi-lo)
	for s := lo; s < hi; s++ {
		in = append(in, Edge{To: int(g.rSrc[s]), Weight: g.fW[g.rFwd[s]]})
	}
	return in
}

// Unreachable is the distance reported for vertices with no path.
var Unreachable = math.Inf(1)

// ErrTargetOutOfRange is returned by the shortest-path routines for an
// invalid target vertex.
var ErrTargetOutOfRange = errors.New("graph: target vertex out of range")

// DAG is the all-shortest-paths predecessor structure toward a fixed
// target vertex: the union of every minimum-cost path from every vertex to
// the target. The paper calls this structure the "fat tree" (Phase I/II of
// the RFH algorithm), since a vertex may have several tight parents.
type DAG struct {
	// Target is the sink all paths lead to.
	Target int
	// Dist[u] is the cost of the cheapest path u->Target (Unreachable if
	// none).
	Dist []float64
	// Parents[u] lists every v such that edge u->v lies on some
	// minimum-cost path from u to Target, i.e.
	// Dist[u] = w(u,v) + Dist[v] (within the construction tolerance).
	// Parents[Target] is empty. Parent lists preserve edge insertion
	// order, keeping downstream tie-breaking deterministic.
	Parents [][]int
}

// ShortestPathDAG computes the all-shortest-paths DAG toward target.
// tol is the absolute tolerance used to recognise ties between
// floating-point path costs; pass 0 for exact comparison. A small positive
// tol (e.g. 1e-9 relative to typical weights) makes the fat tree robust to
// floating-point noise when many geometric paths tie.
func (g *Graph) ShortestPathDAG(target int, tol float64) (*DAG, error) {
	return NewRouter(g).DAGTo(target, tol)
}

// Reachable reports, for each vertex, whether the target is reachable
// from it (d.Dist finite).
func (d *DAG) Reachable(u int) bool { return !math.IsInf(d.Dist[u], 1) }

// BellmanFordTo is a reference implementation of Router.DistancesTo with
// O(V*E) complexity. It exists so property-based and differential tests
// can cross-check the CSR Dijkstra; production code should use a Router.
func (g *Graph) BellmanFordTo(target int) ([]float64, error) {
	if target < 0 || target >= g.n {
		return nil, fmt.Errorf("%w: %d", ErrTargetOutOfRange, target)
	}
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[target] = 0
	for iter := 0; iter < g.n-1; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			for s := g.fOff[u]; s < g.fOff[u+1]; s++ {
				v := int(g.fDst[s])
				if math.IsInf(dist[v], 1) {
					continue
				}
				if nd := g.fW[s] + dist[v]; nd < dist[u] {
					dist[u] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist, nil
}

// ReweightEdges recomputes every edge weight in place: for each directed
// edge u->v the new weight is weigh(u, v). The weight store is shared by
// both CSR directions, so a single pass over the forward slots updates
// everything. The graph's structure (vertex and edge sets) is unchanged,
// which is what lets Routers and DAGs built on top keep their buffers.
// Weights must remain finite and non-negative.
func (g *Graph) ReweightEdges(weigh func(u, v int) float64) error {
	for u := 0; u < g.n; u++ {
		for s := g.fOff[u]; s < g.fOff[u+1]; s++ {
			v := int(g.fDst[s])
			w := weigh(u, v)
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("graph: edge (%d,%d) reweighted to %g, must be finite and non-negative", u, v, w)
			}
			g.fW[s] = w
		}
	}
	return nil
}
