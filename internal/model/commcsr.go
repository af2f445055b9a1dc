package model

import (
	"fmt"

	"wrsn/internal/geom"
)

// commCSR is the frozen struct-of-arrays communication topology: the
// range-feasible edges u->v (u a post, v a post or the BS) with their
// per-bit transmit energies, in compressed sparse row form over both
// directions. buildCommCSR is the package's one enumeration of vertex
// pairs; the evaluators walk it directly and CommGraph (hence
// BuildGraph) is a view of it. Edge order inside each row is in-rows
// ascending u, out-rows ascending v, which downstream tie-breaking and
// CommGraph's slot correspondence depend on.
//
// outSlot maps every out slot to the in slot of the same edge, so the
// evaluators' maintained per-edge weights live once, indexed by in slot.
// Transmit energies are stored in both slot orders (inTx, outTx).
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

// buildCommCSR precomputes the communication topology of p. Pairs are
// enumerated u ascending, v ascending per u, which is exactly the
// out-row order, so the loop writes the out-rows directly; a stable
// counting sort by head then fills the in-rows.
func buildCommCSR(p *Problem) (*commCSR, error) {
	n := p.N()
	c := &commCSR{
		n:      n,
		bs:     n,
		inOff:  make([]int32, n+2),
		outOff: make([]int32, n+1),
	}
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
				return nil, fmt.Errorf("model: edge (%d,%d): %w", u, v, err)
			}
			c.outTo = append(c.outTo, int32(v))
			c.outTx = append(c.outTx, tx)
			c.inOff[v+1]++
		}
		c.outOff[u+1] = int32(len(c.outTo))
	}
	m := len(c.outTo)
	c.inFrom = make([]int32, m)
	c.inTx = make([]float64, m)
	c.outSlot = make([]int32, m)

	// In-rows: stable counting sort by head v. Out slots run u
	// ascending, so within one in-row the tails appear ascending.
	for v := 0; v <= n; v++ {
		c.inOff[v+1] += c.inOff[v]
	}
	cur := append([]int32(nil), c.inOff[:n+1]...)
	for u := 0; u < n; u++ {
		for s := c.outOff[u]; s < c.outOff[u+1]; s++ {
			v := c.outTo[s]
			t := cur[v]
			cur[v] = t + 1
			c.inFrom[t] = int32(u)
			c.inTx[t] = c.outTx[s]
			c.outSlot[s] = t
		}
	}
	return c, nil
}

// numEdges returns the number of directed communication edges.
func (c *commCSR) numEdges() int { return len(c.inFrom) }
