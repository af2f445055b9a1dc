package model

import (
	"fmt"

	"wrsn/internal/geom"
)

// commCSR is the frozen struct-of-arrays communication topology shared by
// the evaluators: the range-feasible edges u->v (u a post, v a post or
// the BS) with their per-bit transmit energies, in compressed sparse row
// form over both directions. Edge order inside each row matches the
// historical nested-slice build (in-rows ascending u, out-rows ascending
// v), which downstream tie-breaking depends on.
//
// The out direction stores no energies: outSlot maps every out slot to
// the in slot of the same edge, so per-edge state (transmit energy,
// maintained weights) lives once, indexed by in slot.
type commCSR struct {
	n  int // posts
	bs int // base-station vertex (== n)

	// In-edges of v (v in 0..n): slots inOff[v]..inOff[v+1].
	inOff  []int32
	inFrom []int32
	inTx   []float64

	// Out-edges of u (u in 0..n-1): slots outOff[u]..outOff[u+1].
	outOff  []int32
	outTo   []int32
	outSlot []int32   // out slot -> in slot of the same edge
	outTx   []float64 // same energies as inTx, indexed by out slot
}

// buildCommCSR precomputes the communication topology of p. Edge
// enumeration order is identical to the historical buildInEdges (u
// ascending, v ascending per u), and the stable counting sorts preserve
// it per row.
func buildCommCSR(p *Problem) (*commCSR, error) {
	n := p.N()
	c := &commCSR{
		n:     n,
		bs:    n,
		inOff: make([]int32, n+2),
	}
	dmax := p.Energy.MaxRange()

	type rawEdge struct {
		u, v int32
		tx   float64
	}
	var edges []rawEdge
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
				return nil, fmt.Errorf("model: evaluator edge (%d,%d): %w", u, v, err)
			}
			edges = append(edges, rawEdge{u: int32(u), v: int32(v), tx: tx})
		}
	}
	m := len(edges)
	c.inFrom = make([]int32, m)
	c.inTx = make([]float64, m)
	c.outOff = make([]int32, n+1)
	c.outTo = make([]int32, m)
	c.outSlot = make([]int32, m)
	c.outTx = make([]float64, m)

	// In-rows: stable counting sort by head v. The edge list is ordered
	// by (u, v); within one v the u values therefore appear ascending,
	// matching the old in[v] append order.
	for i := range edges {
		c.inOff[edges[i].v+1]++
	}
	for v := 0; v <= n; v++ {
		c.inOff[v+1] += c.inOff[v]
	}
	cur := make([]int32, n+1)
	for v := 0; v <= n; v++ {
		cur[v] = c.inOff[v]
	}
	inSlotOf := make([]int32, m) // original edge index -> in slot
	for i := range edges {
		e := &edges[i]
		s := cur[e.v]
		cur[e.v] = s + 1
		c.inFrom[s] = e.u
		c.inTx[s] = e.tx
		inSlotOf[i] = s
	}

	// Out-rows: the old build iterated v ascending and appended to
	// out[u], so out rows are ordered by v; the original edge list is
	// ordered by (u, v), which gives exactly that per-u order.
	for i := range edges {
		c.outOff[edges[i].u+1]++
	}
	for u := 0; u < n; u++ {
		c.outOff[u+1] += c.outOff[u]
	}
	ocur := make([]int32, n)
	for u := 0; u < n; u++ {
		ocur[u] = c.outOff[u]
	}
	for i := range edges {
		e := &edges[i]
		s := ocur[e.u]
		ocur[e.u] = s + 1
		c.outTo[s] = e.v
		c.outSlot[s] = inSlotOf[i]
		c.outTx[s] = e.tx
	}
	return c, nil
}

// numEdges returns the number of directed communication edges.
func (c *commCSR) numEdges() int { return len(c.inFrom) }
