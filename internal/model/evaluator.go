package model

import (
	"fmt"
	"math"

	"wrsn/internal/graph"
)

var inf = math.Inf(1)

// CostEvaluator answers "what is the minimum total recharging cost of this
// problem under deployment m?" repeatedly and fast. It precomputes the
// communication edges (a frozen CSR over endpoints and per-bit transmit
// energies) once and then runs a deployment-parameterised Dijkstra per
// query without rebuilding any adjacency structure or allocating (the
// indexed heap is reused across queries). IDB evaluates
// ~C(N+delta-1, N-1) deployments per round and the exact solver evaluates
// up to millions, so this is the performance-critical path of the whole
// library.
//
// CostEvaluator is stateless between queries: every MinCost call prices
// the full deployment from scratch, dividing out each edge weight in the
// relax loop. That keeps it arithmetically independent of the
// IncrementalEvaluator's maintained weight arrays — the differential
// suites use it as the oracle the incremental path must match
// bit-for-bit.
//
// Solvers that probe small perturbations of one deployment should use
// IncrementalEvaluator (the Evaluator interface's delta-aware
// implementation), which repairs the previous shortest-path solution
// instead of recomputing it.
type CostEvaluator struct {
	p  *Problem
	n  int // posts
	bs int // base-station vertex index (== n)

	c  *commCSR
	rx float64

	// scratch buffers reused across queries
	eff   []float64
	dist  []float64
	rates []float64
	h     *graph.IndexedMinHeap
}

// NewCostEvaluator precomputes the communication topology of p.
func NewCostEvaluator(p *Problem) (*CostEvaluator, error) {
	n := p.N()
	c, err := buildCommCSR(p)
	if err != nil {
		return nil, err
	}
	return &CostEvaluator{
		p:     p,
		n:     n,
		bs:    n,
		c:     c,
		rx:    p.Energy.RxEnergy(),
		eff:   make([]float64, n),
		dist:  make([]float64, n+1),
		rates: buildRates(p, n),
		h:     graph.NewIndexedMinHeap(n + 1),
	}, nil
}

// buildRates materialises the per-post report rates once so the cost
// summation indexes a flat slice instead of calling p.Rate per term.
func buildRates(p *Problem, n int) []float64 {
	rates := make([]float64, n)
	for i := 0; i < n; i++ {
		rates[i] = p.Rate(i)
	}
	return rates
}

// MinCost returns the minimum total recharging cost achievable for
// deployment m (one count per post, each >= 1). Unlike Evaluate it does
// not require sum(m) == p.Nodes: the exact solver probes optimistic
// over-allocations as admissible bounds.
func (ev *CostEvaluator) MinCost(m []int) (float64, error) {
	if err := ev.prepare(m); err != nil {
		return 0, err
	}
	ev.dijkstra()
	return totalCost(ev.p, ev.n, ev.dist, ev.eff, ev.rates)
}

// totalCost sums the paper's objective from per-post shortest recharging
// distances plus the routing-independent overhead, in a fixed summation
// order shared by the stateless and incremental evaluators (so both
// produce bit-identical costs from identical distances).
func totalCost(p *Problem, n int, dist, eff, rates []float64) (float64, error) {
	var total float64
	for u := 0; u < n; u++ {
		if dist[u] == inf {
			return 0, fmt.Errorf("%w: post %d", ErrDisconnected, u)
		}
		total += float64(rates[u] * dist[u])
	}
	return total + overheadCost(p, n, eff), nil
}

// overheadCost prices the routing-independent per-round overhead at every
// post under the given efficiencies.
func overheadCost(p *Problem, n int, eff []float64) float64 {
	if !p.HasOverhead() {
		return 0
	}
	var total float64
	for i := 0; i < n; i++ {
		total += p.Overhead(i) / eff[i]
	}
	return total
}

// BestParents returns a parent vector realising MinCost(m) along with the
// cost, materialising one shortest-path tree: each post's parent is the
// tight neighbour discovered by Dijkstra (lowest vertex index on ties).
func (ev *CostEvaluator) BestParents(m []int) ([]int, float64, error) {
	parents := make([]int, ev.n)
	total, err := ev.BestParentsInto(parents, m)
	if err != nil {
		return nil, 0, err
	}
	return parents, total, nil
}

// BestParentsInto is BestParents writing into a caller-provided scratch
// buffer (len == N), for hot paths that materialise trees repeatedly.
func (ev *CostEvaluator) BestParentsInto(parents []int, m []int) (float64, error) {
	if err := ev.prepare(m); err != nil {
		return 0, err
	}
	ev.dijkstra()
	total, err := totalCost(ev.p, ev.n, ev.dist, ev.eff, ev.rates)
	if err != nil {
		return 0, err
	}
	if err := recoverParents(ev.c, ev.eff, ev.rx, ev.dist, parents); err != nil {
		return 0, err
	}
	return total, nil
}

// recoverParents fills parents with a tight-parent vector for the given
// shortest distances: u's parent is any v with dist[u] = w(u,v) + dist[v]
// (lowest vertex index on ties, by scan order). Shared by the stateless
// and incremental evaluators so both materialise identical trees.
func recoverParents(c *commCSR, eff []float64, rx float64, dist []float64, parents []int) error {
	n, bs := c.n, c.bs
	if len(parents) != n {
		return fmt.Errorf("model: parent buffer covers %d posts, want %d", len(parents), n)
	}
	for u := 0; u < n; u++ {
		parents[u] = -1
	}
	const tol = DAGTolerance
	for v := 0; v <= n; v++ {
		dv := dist[v]
		if dv == inf {
			continue
		}
		for s := c.inOff[v]; s < c.inOff[v+1]; s++ {
			u := int(c.inFrom[s])
			if parents[u] >= 0 {
				continue
			}
			if math.Abs(dist[u]-(edgeWeight(c.inTx[s], u, v, bs, eff, rx)+dv)) <= tol {
				parents[u] = v
			}
		}
	}
	for u := 0; u < n; u++ {
		if parents[u] < 0 {
			return fmt.Errorf("model: no tight parent recovered for post %d", u)
		}
	}
	return nil
}

// prepare validates m and fills the per-post efficiency scratch buffer.
func (ev *CostEvaluator) prepare(m []int) error {
	if len(m) != ev.n {
		return fmt.Errorf("model: deployment covers %d posts, want %d", len(m), ev.n)
	}
	for i, mi := range m {
		e, err := ev.p.Charging.NetworkEfficiency(mi)
		if err != nil {
			return fmt.Errorf("model: post %d: %w", i, err)
		}
		ev.eff[i] = e
	}
	return nil
}

// edgeWeight prices the communication edge from->to under the given
// efficiencies: the charger pays tx/eff[from] per bit, plus rx/eff[to]
// when the receiver is a post. The single shared pricing function keeps
// every evaluator bit-identical.
func edgeWeight(tx float64, from, to, bs int, eff []float64, rx float64) float64 {
	w := tx / eff[from]
	if to != bs {
		w += rx / eff[to]
	}
	return w
}

// dijkstra fills ev.dist with shortest recharging-cost distances to the BS.
func (ev *CostEvaluator) dijkstra() {
	c := ev.c
	for i := range ev.dist {
		ev.dist[i] = inf
	}
	ev.dist[ev.bs] = 0
	h := ev.h
	h.Reset()
	h.Push(ev.bs, 0)
	for h.Len() > 0 {
		v, dv := h.Pop()
		if dv > ev.dist[v] {
			continue
		}
		for s := c.inOff[v]; s < c.inOff[v+1]; s++ {
			u := int(c.inFrom[s])
			if nd := dv + edgeWeight(c.inTx[s], u, v, ev.bs, ev.eff, ev.rx); nd < ev.dist[u] {
				ev.dist[u] = nd
				h.Push(u, nd)
			}
		}
	}
}
