// Package model defines the joint deployment-and-routing problem from the
// paper (Section III/IV) and its exact cost semantics:
//
//   - A Problem: N post locations, a base station, M sensor nodes, a
//     discrete-level radio energy model, and a wireless charging model.
//   - A Deployment: how many nodes each post holds (>= 1, summing to M).
//   - A Tree: each post's parent (another post or the base station) and
//     transmission power level.
//   - Evaluate: the total recharging cost — the charger energy needed to
//     compensate every post's consumption for one bit reported by every
//     post — the objective function minimised by every solver.
//
// The model package also builds the weighted communication graphs the
// solvers run shortest paths on. Vertices 0..N-1 are posts and vertex N is
// the base station.
package model

import (
	"errors"
	"fmt"
	"math"

	"wrsn/internal/charging"
	"wrsn/internal/energy"
	"wrsn/internal/geom"
	"wrsn/internal/graph"
)

// Problem is one instance of the joint deployment-and-routing problem.
type Problem struct {
	// Posts are the N post locations. Every post must receive at least
	// one sensor node.
	Posts []geom.Point
	// BS is the base station location (the paper places it at the
	// lower-left corner of the field).
	BS geom.Point
	// Nodes is M, the total number of sensor nodes to deploy (M >= N).
	Nodes int
	// Energy is the radio energy model (levels, alpha/beta/gamma).
	Energy energy.Model
	// Charging is the wireless charging model (eta, gain k(m)).
	Charging charging.Model
	// RoundOverhead is the non-communication energy (sensing,
	// computation) each post consumes per reporting round, in nJ. The
	// paper focuses on communication energy but notes the model
	// "can be extended to other sources of energy consumption such as
	// sensing and computation" — this field is that extension. It is
	// independent of routing (a constant per post) but not of
	// deployment: posts with overhead attract extra nodes to amortise
	// it. Zero (the default) reproduces the paper exactly.
	RoundOverhead float64
	// ReportRates optionally weights each post's traffic: post i
	// originates ReportRates[i] bits per round instead of one. nil (the
	// default) reproduces the paper's uniform one-report-per-post-per-
	// round model. Rates may be zero (relay-only posts) but not
	// negative, and at least one must be positive. Extension beyond the
	// paper: heterogeneous monitoring densities.
	ReportRates []float64
	// PostOverheads optionally overrides RoundOverhead per post: post i
	// consumes PostOverheads[i] nJ of non-communication energy per
	// round. nil falls back to the scalar RoundOverhead for every post.
	PostOverheads []float64
}

// N returns the number of posts.
func (p *Problem) N() int { return len(p.Posts) }

// BSIndex returns the graph vertex index of the base station.
func (p *Problem) BSIndex() int { return len(p.Posts) }

// Point returns the location of graph vertex v (a post or the BS).
func (p *Problem) Point(v int) geom.Point {
	if v == p.BSIndex() {
		return p.BS
	}
	return p.Posts[v]
}

// ErrDisconnected is returned when some post cannot reach the base
// station even through multi-hop paths at maximum transmission range.
var ErrDisconnected = errors.New("model: network is disconnected at maximum transmission range")

// Validate checks the structural invariants of the problem: at least one
// post, M >= N, valid sub-models, and full connectivity to the base
// station at maximum range.
func (p *Problem) Validate() error {
	if len(p.Posts) == 0 {
		return errors.New("model: problem has no posts")
	}
	if p.Nodes < len(p.Posts) {
		return fmt.Errorf("model: %d nodes cannot cover %d posts (need at least one node per post)", p.Nodes, len(p.Posts))
	}
	if err := p.Energy.Validate(); err != nil {
		return fmt.Errorf("model: invalid energy model: %w", err)
	}
	if err := p.Charging.Validate(); err != nil {
		return fmt.Errorf("model: invalid charging model: %w", err)
	}
	if p.RoundOverhead < 0 || math.IsNaN(p.RoundOverhead) || math.IsInf(p.RoundOverhead, 0) {
		return fmt.Errorf("model: round overhead %g must be finite and non-negative", p.RoundOverhead)
	}
	if p.PostOverheads != nil {
		if len(p.PostOverheads) != len(p.Posts) {
			return fmt.Errorf("model: %d post overheads for %d posts", len(p.PostOverheads), len(p.Posts))
		}
		for i, oh := range p.PostOverheads {
			if oh < 0 || math.IsNaN(oh) || math.IsInf(oh, 0) {
				return fmt.Errorf("model: post %d has invalid overhead %g", i, oh)
			}
		}
	}
	if p.ReportRates != nil {
		if len(p.ReportRates) != len(p.Posts) {
			return fmt.Errorf("model: %d report rates for %d posts", len(p.ReportRates), len(p.Posts))
		}
		anyPositive := false
		for i, r := range p.ReportRates {
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("model: post %d has invalid report rate %g", i, r)
			}
			if r > 0 {
				anyPositive = true
			}
		}
		if !anyPositive {
			return fmt.Errorf("model: all report rates are zero; nothing to route")
		}
	}
	reach, err := p.reachableFromBS()
	if err != nil {
		return err
	}
	for i, ok := range reach {
		if !ok {
			return fmt.Errorf("%w: post %d at %v", ErrDisconnected, i, p.Posts[i])
		}
	}
	return nil
}

// reachableFromBS runs a BFS over the maximum-range connectivity graph
// and reports which posts can reach the BS via multi-hop paths.
func (p *Problem) reachableFromBS() ([]bool, error) {
	dmax := p.Energy.MaxRange()
	if dmax <= 0 {
		return nil, errors.New("model: energy model has no positive transmission range")
	}
	n := p.N()
	seen := make([]bool, n+1)
	seen[n] = true
	queue := []int{n}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		pv := p.Point(v)
		for u := 0; u < n; u++ {
			if !seen[u] && geom.Dist(pv, p.Posts[u]) <= dmax {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return seen[:n], nil
}

// WeightFunc computes the weight of the directed communication edge
// from->to given the per-bit transmit energy of the cheapest covering
// power level. `to` may be the BS index. Returning a negative weight is a
// programming error and will surface as a graph construction failure.
type WeightFunc func(from, to int, txEnergy float64) float64

// EnergyWeights is the paper's Phase-I weight: the transmit energy alone
// (w(u,v) = alpha + beta*d_x^gamma for the smallest covering range d_x).
func (p *Problem) EnergyWeights() WeightFunc {
	return func(_, _ int, tx float64) float64 { return tx }
}

// EnergyWithRxWeights additionally charges the receiver's alpha on every
// hop that does not terminate at the base station, so path costs equal
// true network energy per bit.
func (p *Problem) EnergyWithRxWeights() WeightFunc {
	rx := p.Energy.RxEnergy()
	bs := p.BSIndex()
	return func(_, to int, tx float64) float64 {
		if to == bs {
			return tx
		}
		return tx + rx
	}
}

// RechargeCostWeights prices a hop by what the *charger* pays for it given
// the deployment m: the sender's transmit energy divided by its post's
// network charging efficiency, plus (when the receiver is a post) the
// receive energy divided by the receiver's efficiency. Path costs under
// these weights are exactly per-bit recharging costs, which is what makes
// "optimal routing for a fixed deployment" a shortest-path problem (used
// by IDB and the exact solver).
func (p *Problem) RechargeCostWeights(deploy Deployment) (WeightFunc, error) {
	n := p.N()
	if len(deploy) != n {
		return nil, fmt.Errorf("model: deployment covers %d posts, want %d", len(deploy), n)
	}
	eff := make([]float64, n)
	for i, m := range deploy {
		e, err := p.Charging.NetworkEfficiency(m)
		if err != nil {
			return nil, fmt.Errorf("model: post %d: %w", i, err)
		}
		eff[i] = e
	}
	rx := p.Energy.RxEnergy()
	bs := p.BSIndex()
	return func(from, to int, tx float64) float64 {
		w := tx / eff[from]
		if to != bs {
			w += rx / eff[to]
		}
		return w
	}, nil
}

// BuildGraph constructs the directed communication graph over the N posts
// plus the base station: an edge u->v exists when dist(u,v) <= d_max and u
// is a post (the BS never transmits), weighted by wf. It is a
// CommGraph reweighted once, so edges out of each vertex run in
// ascending destination order and downstream tie-breaking is
// deterministic.
func (p *Problem) BuildGraph(wf WeightFunc) (*graph.Graph, error) {
	c, err := NewCommGraph(p)
	if err != nil {
		return nil, err
	}
	if err := c.Reweight(wf); err != nil {
		return nil, err
	}
	return c.Graph(), nil
}

// DAGTolerance is the absolute tolerance used when recognising tied
// shortest paths while building fat trees. Weights range from ~0.5 nJ
// (recharge-cost weights at large m) to ~100 nJ, and genuinely distinct
// path costs differ by far more than this.
const DAGTolerance = 1e-7

// FatTree builds the all-shortest-paths DAG toward the base station under
// the given weight function (Phase I of RFH).
func (p *Problem) FatTree(wf WeightFunc) (*graph.DAG, error) {
	g, err := p.BuildGraph(wf)
	if err != nil {
		return nil, err
	}
	dag, err := g.ShortestPathDAG(p.BSIndex(), DAGTolerance)
	if err != nil {
		return nil, err
	}
	for u := 0; u < p.N(); u++ {
		if !dag.Reachable(u) {
			return nil, fmt.Errorf("%w: post %d", ErrDisconnected, u)
		}
	}
	return dag, nil
}

// Overhead returns post i's per-round non-communication energy: the
// per-post override when set, the scalar RoundOverhead otherwise.
func (p *Problem) Overhead(i int) float64 {
	if p.PostOverheads != nil {
		return p.PostOverheads[i]
	}
	return p.RoundOverhead
}

// HasOverhead reports whether any post carries non-communication energy.
func (p *Problem) HasOverhead() bool {
	if p.PostOverheads != nil {
		for _, oh := range p.PostOverheads {
			if oh > 0 {
				return true
			}
		}
		return false
	}
	return p.RoundOverhead > 0
}

// Rate returns post i's report rate (1 when ReportRates is nil).
func (p *Problem) Rate(i int) float64 {
	if p.ReportRates == nil {
		return 1
	}
	return p.ReportRates[i]
}

// TotalRate returns the sum of all report rates (N when uniform).
func (p *Problem) TotalRate() float64 {
	if p.ReportRates == nil {
		return float64(len(p.Posts))
	}
	var total float64
	for _, r := range p.ReportRates {
		total += r
	}
	return total
}

// UniformRates reports whether every post originates exactly one bit per
// round (the paper's base model).
func (p *Problem) UniformRates() bool {
	if p.ReportRates == nil {
		return true
	}
	for _, r := range p.ReportRates {
		if r != 1 {
			return false
		}
	}
	return true
}
