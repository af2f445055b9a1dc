package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/energy"
	"wrsn/internal/geom"
	"wrsn/internal/graph"
)

// pairLoopTopology is the per-pair communication-graph build that
// BuildGraph and NewCommGraph used before both became views of commCSR,
// kept verbatim as the oracle: every (u, v) pair tested against d_max,
// edges added u ascending then v ascending, plus the dense (N+1)^2
// transmit-energy table (+Inf where infeasible) TxBetween used to read.
func pairLoopTopology(p *Problem, wf WeightFunc) (*graph.Graph, []float64, error) {
	n := p.N()
	txTable := make([]float64, (n+1)*(n+1))
	for i := range txTable {
		txTable[i] = math.Inf(1)
	}
	b := graph.NewBuilder(n + 1)
	dmax := p.Energy.MaxRange()
	for u := 0; u < n; u++ {
		pu := p.Posts[u]
		for v := 0; v <= n; v++ {
			if v == u {
				continue
			}
			d := geom.Dist(pu, p.Point(v))
			if d > dmax {
				continue
			}
			tx, err := p.Energy.TxEnergy(d)
			if err != nil {
				return nil, nil, fmt.Errorf("model: edge (%d,%d): %w", u, v, err)
			}
			txTable[u*(n+1)+v] = tx
			if err := b.AddEdge(u, v, wf(u, v, tx)); err != nil {
				return nil, nil, err
			}
		}
	}
	return b.Build(), txTable, nil
}

// sameGraph reports the first difference between two graphs' out- and
// in-edge lists, comparing weights bit for bit, or "" when they match.
func sameGraph(got, want *graph.Graph) string {
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		return fmt.Sprintf("%d vertices/%d edges, want %d/%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for dir, edges := range map[string]func(*graph.Graph, int) []graph.Edge{
		"out": (*graph.Graph).Out,
		"in":  (*graph.Graph).In,
	} {
		for v := 0; v < want.NumVertices(); v++ {
			g, w := edges(got, v), edges(want, v)
			if len(g) != len(w) {
				return fmt.Sprintf("%s(%d) has %d edges, want %d", dir, v, len(g), len(w))
			}
			for k := range w {
				if g[k].To != w[k].To || math.Float64bits(g[k].Weight) != math.Float64bits(w[k].Weight) {
					return fmt.Sprintf("%s(%d)[%d] = %+v, want %+v", dir, v, k, g[k], w[k])
				}
			}
		}
	}
	return ""
}

// topologyCases covers the shapes the shared topology must reproduce:
// uniform and clustered scatter, a single post, posts at exactly d_max
// (and just past it), and heterogeneous report rates with a sublinear
// charging gain.
func topologyCases(t *testing.T) map[string]*Problem {
	t.Helper()
	gen := func(seed int64, spec GenSpec) *Problem {
		p, err := GenerateProblem(rand.New(rand.NewSource(seed)), spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]*Problem{
		"uniform":   gen(1, GenSpec{Field: geom.Square(300), Posts: 60, Nodes: 180}),
		"clustered": gen(2, GenSpec{Field: geom.Square(300), Posts: 60, Nodes: 180, Layout: LayoutClustered}),
		"single":    gen(3, GenSpec{Field: geom.Square(40), Posts: 1, Nodes: 3}),
	}

	// Default ranges are 25/50/75 m and every hop below is axis-aligned,
	// so distances are exact: post 0 is exactly d_max from the BS, post 1
	// exactly d_max from post 0, post 2 a hair past d_max from post 1,
	// and posts 3 and 4 sit on the 25 m and 50 m level boundaries.
	boundary := &Problem{
		Posts: []geom.Point{
			{X: 75, Y: 0},
			{X: 150, Y: 0},
			{X: 225.001, Y: 0},
			{X: 150, Y: 25},
			{X: 150, Y: 50},
		},
		BS:       geom.Point{},
		Nodes:    10,
		Energy:   energy.Default(),
		Charging: charging.Default(),
	}
	cases["dmax-boundary"] = boundary

	rates := gen(4, GenSpec{
		Field:    geom.Square(250),
		Posts:    40,
		Nodes:    120,
		Charging: charging.Model{EtaSingle: 0.4, Gain: charging.Sublinear(0.8)},
		Layout:   LayoutClustered,
	})
	rates.ReportRates = make([]float64, rates.N())
	for i := range rates.ReportRates {
		rates.ReportRates[i] = 0.5 + float64(i%4)
	}
	cases["heterogeneous-rates"] = rates
	return cases
}

// TestTopologyMatchesPairLoop pins the one communication topology
// (commCSR) and its views to the per-pair build they replaced:
// BuildGraph's edges and weights, TxBetween over every vertex pair, and
// CommGraph.Reweight against a fresh BuildGraph, bit for bit.
func TestTopologyMatchesPairLoop(t *testing.T) {
	for name, p := range topologyCases(t) {
		t.Run(name, func(t *testing.T) {
			n := p.N()
			deploy := make(Deployment, n)
			for i := range deploy {
				deploy[i] = 1 + i%3
			}
			recharge, err := p.RechargeCostWeights(deploy)
			if err != nil {
				t.Fatal(err)
			}
			weights := []struct {
				name string
				wf   WeightFunc
			}{
				{"energy", p.EnergyWeights()},
				{"energy+rx", p.EnergyWithRxWeights()},
				{"recharge", recharge},
			}

			var txTable []float64
			for _, w := range weights {
				want, table, err := pairLoopTopology(p, w.wf)
				if err != nil {
					t.Fatal(err)
				}
				txTable = table
				got, err := p.BuildGraph(w.wf)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameGraph(got, want); diff != "" {
					t.Fatalf("BuildGraph(%s): %s", w.name, diff)
				}
			}

			cg, err := NewCommGraph(p)
			if err != nil {
				t.Fatal(err)
			}
			phase1, _, err := pairLoopTopology(p, p.EnergyWeights())
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameGraph(cg.Graph(), phase1); diff != "" {
				t.Fatalf("NewCommGraph's initial weights: %s", diff)
			}
			// The evaluators walk the topology's in-rows: they must list
			// the pair loop's in-edges in its order, and every out slot
			// must point at the in slot of the same edge.
			top := cg.top
			for v := 0; v <= n; v++ {
				want := phase1.In(v)
				lo, hi := int(top.inOff[v]), int(top.inOff[v+1])
				if hi-lo != len(want) {
					t.Fatalf("in-row %d has %d edges, pair loop %d", v, hi-lo, len(want))
				}
				for k, e := range want {
					if int(top.inFrom[lo+k]) != e.To || math.Float64bits(top.inTx[lo+k]) != math.Float64bits(e.Weight) {
						t.Fatalf("in-row %d slot %d = (%d, %v), pair loop %+v", v, k, top.inFrom[lo+k], top.inTx[lo+k], e)
					}
				}
			}
			for u := 0; u < n; u++ {
				for s := top.outOff[u]; s < top.outOff[u+1]; s++ {
					in, v := top.outSlot[s], top.outTo[s]
					if int(top.inFrom[in]) != u || in < top.inOff[v] || in >= top.inOff[v+1] || top.inTx[in] != top.outTx[s] {
						t.Fatalf("out slot %d (%d->%d) maps to in slot %d of another edge", s, u, v, in)
					}
				}
			}
			edges := 0
			for u := 0; u <= n; u++ {
				for v := 0; v <= n; v++ {
					want := txTable[u*(n+1)+v]
					got, ok := cg.TxBetween(u, v)
					if ok != !math.IsInf(want, 1) || (ok && math.Float64bits(got) != math.Float64bits(want)) {
						t.Fatalf("TxBetween(%d,%d) = %v, %v; pair loop %v", u, v, got, ok, want)
					}
					if ok {
						edges++
					}
				}
			}
			if edges != cg.Graph().NumEdges() {
				t.Fatalf("TxBetween found %d hops, graph has %d", edges, cg.Graph().NumEdges())
			}
			for _, uv := range [][2]int{{-1, 0}, {0, -1}, {n + 1, 0}, {0, n + 1}} {
				if _, ok := cg.TxBetween(uv[0], uv[1]); ok {
					t.Fatalf("TxBetween%v outside the vertex range reported a hop", uv)
				}
			}

			// Reweight in an order that leaves no stale weight hidden.
			for _, k := range []int{2, 0, 1, 2, 1} {
				w := weights[k]
				if err := cg.Reweight(w.wf); err != nil {
					t.Fatal(err)
				}
				fresh, err := p.BuildGraph(w.wf)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameGraph(cg.Graph(), fresh); diff != "" {
					t.Fatalf("Reweight(%s): %s", w.name, diff)
				}
			}
		})
	}
}
