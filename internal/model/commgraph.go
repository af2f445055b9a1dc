package model

import (
	"slices"

	"wrsn/internal/graph"
)

// CommGraph is the communication graph of a Problem built once and
// reweighted in place between uses. It is a view of the problem's one
// topology (commCSR): the graph's structure and per-hop transmit
// energies depend only on geometry and the energy model, so iterative
// algorithms that re-price hops every round — RFH's recharging-cost
// refinement, heal's survivor repricing — enumerate the feasible pairs
// once and touch only edge weights afterwards.
//
// Vertices are posts 0..N-1 plus the base station at N. The graph is
// built from the topology's out-rows, which run u ascending and v
// ascending within a row — graph.Builder's forward slot order — so graph
// forward slot s is topology out slot s (Reweight relies on it) and
// shortest-path tie-breaking follows the pair enumeration order.
type CommGraph struct {
	top *commCSR
	g   *graph.Graph
}

// NewCommGraph builds the communication graph of p with the per-hop
// transmit energies as initial weights (the paper's Phase-I
// EnergyWeights pricing).
func NewCommGraph(p *Problem) (*CommGraph, error) {
	top, err := buildCommCSR(p)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(top.n + 1)
	for u := 0; u < top.n; u++ {
		for s := top.outOff[u]; s < top.outOff[u+1]; s++ {
			if err := b.AddEdge(u, int(top.outTo[s]), top.outTx[s]); err != nil {
				return nil, err
			}
		}
	}
	return &CommGraph{top: top, g: b.Build()}, nil
}

// Graph returns the underlying graph. Callers may reweight it (via
// Reweight) but must not add or remove edges.
func (c *CommGraph) Graph() *graph.Graph { return c.g }

// TxBetween returns the per-bit transmit energy of the hop u->v, found
// by binary search in u's out-row (sorted by v), with ok=false when the
// hop is infeasible (out of range, self, or u is the base station). It
// is the vertex-pair form of Energy.TxEnergy, suitable for
// routing.MergeSpec.TxEnergyBetween.
func (c *CommGraph) TxBetween(u, v int) (float64, bool) {
	t := c.top
	if u < 0 || u >= t.n || v < 0 || v > t.n { // the base station has no out-row
		return 0, false
	}
	lo, hi := t.outOff[u], t.outOff[u+1]
	k, ok := slices.BinarySearch(t.outTo[lo:hi], int32(v))
	if !ok {
		return 0, false
	}
	return t.outTx[int(lo)+k], true
}

// Reweight re-prices every edge in place as wf(u, v, txEnergy(u,v)),
// leaving the graph structure untouched. ReweightEdges visits forward
// slots in order, and forward slot s is out slot s, so the energies are
// read by slot rather than looked up.
func (c *CommGraph) Reweight(wf WeightFunc) error {
	tx := c.top.outTx
	s := 0
	return c.g.ReweightEdges(func(u, v int) float64 {
		w := wf(u, v, tx[s])
		s++
		return w
	})
}
