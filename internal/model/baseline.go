package model

import (
	"fmt"
	"math"
)

// MinEnergyTree returns the charging-oblivious routing baseline: every
// post follows a minimum-network-energy path (transmit plus receive
// energy per bit) to the base station, with no regard for deployment or
// charging efficiency. This is the classic pre-wireless-charging design
// that the paper's heuristics are measured against.
func MinEnergyTree(p *Problem) (Tree, error) {
	dag, err := p.FatTree(p.EnergyWithRxWeights())
	if err != nil {
		return Tree{}, err
	}
	parents := make([]int, p.N())
	for u := range parents {
		if len(dag.Parents[u]) == 0 {
			return Tree{}, fmt.Errorf("%w: post %d", ErrDisconnected, u)
		}
		parents[u] = dag.Parents[u][0]
	}
	return NewTreeFromParents(p, parents)
}

// MinSpanningTree returns the classic WSN routing baseline built by
// Prim's algorithm: the spanning tree over posts+BS minimising the *sum*
// of per-hop transmit energies, oriented toward the base station. Unlike
// MinEnergyTree it minimises total link energy rather than per-source
// path energy — the standard "energy-aware MST" heuristic from the
// pre-wireless-charging literature, kept as a comparison baseline.
//
// Hop energies come from the problem's communication topology: each
// attachment relaxes the in-row of the vertex just added, whose tails
// ascend, so ties keep Prim's lowest-index order.
func MinSpanningTree(p *Problem) (Tree, error) {
	c, err := buildCommCSR(p)
	if err != nil {
		return Tree{}, err
	}
	n := p.N()
	const unset = -1
	parents := make([]int, n)
	bestCost := make([]float64, n)
	bestTo := make([]int, n)
	inTree := make([]bool, n+1)
	for i := 0; i < n; i++ {
		parents[i] = unset
		bestCost[i] = math.Inf(1)
		bestTo[i] = unset
	}
	// attach offers every post outside the tree its link to v.
	attach := func(v int) {
		for s := c.inOff[v]; s < c.inOff[v+1]; s++ {
			u := int(c.inFrom[s])
			if !inTree[u] && c.inTx[s] < bestCost[u] {
				bestCost[u] = c.inTx[s]
				bestTo[u] = v
			}
		}
	}

	// Prim from the BS: grow the tree one cheapest attachment at a time.
	inTree[c.bs] = true
	attach(c.bs)
	for added := 0; added < n; added++ {
		pick, pickCost := unset, math.Inf(1)
		for u := 0; u < n; u++ {
			if !inTree[u] && bestCost[u] < pickCost {
				pick, pickCost = u, bestCost[u]
			}
		}
		if pick == unset {
			return Tree{}, fmt.Errorf("%w: MST cannot attach all posts", ErrDisconnected)
		}
		inTree[pick] = true
		parents[pick] = bestTo[pick]
		attach(pick)
	}
	return NewTreeFromParents(p, parents)
}
