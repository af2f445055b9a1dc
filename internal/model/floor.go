package model

import "fmt"

// Floor holds one deployment's exact shortest recharging distances, so
// branch and bound can use them to price a lower bound for a related
// deployment. It is filled by IncrementalEvaluator.SaveFloor from the
// committed state and read by PruneByFloor. The zero value is an empty
// floor. SaveFloor reuses its buffers, so one Floor per search depth
// allocates only once.
type Floor struct {
	m    []int
	eff  []float64
	rxw  []float64 // rx/eff per post, 0 for the BS
	dist []float64 // exact shortest recharging distances, the BS last
}

// SaveFloor copies the committed deployment's counts, efficiencies and
// exact shortest recharging distances into f.
func (ev *IncrementalEvaluator) SaveFloor(f *Floor) error {
	if !ev.have {
		return errNoBase
	}
	if ev.state != stateIdle {
		return errPendingProbe
	}
	f.m = append(f.m[:0], ev.m...)
	f.eff = append(f.eff[:0], ev.eff...)
	f.rxw = append(f.rxw[:0], ev.rxw...)
	f.dist = append(f.dist[:0], ev.dist...)
	return nil
}

// PruneByFloor reports whether deployment m provably costs at least
// limit, judged from f without applying any move or settling any vertex.
// m must be componentwise at most f's deployment: a post may lose nodes,
// never gain them. A true return guarantees MinCost(m) >= limit, the same
// promise as a pruned CostDeltaBounded probe. It leaves the evaluator's
// committed state and any pending probe untouched.
//
// The bound rests on monotonicity. Efficiency is non-decreasing in the
// node count, so every edge weight under m is at least its weight under
// f's deployment, and so is every shortest distance: d_x >= floor_x for
// every vertex x. A post u whose efficiency dropped also gets one
// Bellman step over its own out-edges, d_u >= min over u->x of
// floor_x + w_m(u,x), where w_m is the edge weight under m. Posts whose
// efficiency did not change keep floor_u. The per-post lower distances
// are then summed in totalCost's order with m's efficiencies, as the
// cost itself is. IEEE rounding is monotone and every operation matches
// the Dijkstra relaxation and the cost sum term for term, so the float
// bound never exceeds the float cost. The test still asks for limit plus
// boundedSlack, the in-settle test's margin, so a rejected deployment
// clears the limit by the same margin a pruned probe does.
func (ev *IncrementalEvaluator) PruneByFloor(f *Floor, m []int, limit float64) (bool, error) {
	lb, err := ev.floorBound(f, m)
	if err != nil {
		return false, err
	}
	if lb >= limit+boundedSlack {
		ev.stats.FloorPrunes++
		return true, nil
	}
	return false, nil
}

// floorBound is PruneByFloor's lower bound on MinCost(m).
func (ev *IncrementalEvaluator) floorBound(f *Floor, m []int) (float64, error) {
	n := ev.n
	if len(m) != n {
		return 0, fmt.Errorf("model: deployment covers %d posts, want %d", len(m), n)
	}
	if len(f.m) != n {
		return 0, fmt.Errorf("model: floor covers %d posts, want %d", len(f.m), n)
	}
	if len(ev.lbEff) != n {
		ev.lbEff = make([]float64, n)
		ev.lbRxw = make([]float64, n+1)
	}
	eff, rxw := ev.lbEff, ev.lbRxw
	copy(eff, f.eff)
	copy(rxw, f.rxw)
	for u, mu := range m {
		fu := f.m[u]
		if mu == fu {
			continue
		}
		if mu > fu {
			return 0, fmt.Errorf("model: post %d holds %d nodes, above its floor's %d", u, mu, fu)
		}
		e, err := ev.netEff(mu)
		if err != nil {
			return 0, fmt.Errorf("model: post %d: %w", u, err)
		}
		eff[u] = e
		rxw[u] = ev.rx / e
	}
	// Sum in totalCost's order. A post whose efficiency did not change
	// (untouched, or past a saturating gain's cap) keeps its floor.
	c := ev.c
	outOff, outTo, outTx := c.outOff, c.outTo, c.outTx
	fdist, feff, rates := f.dist[:n+1], f.eff[:n], ev.rates[:n]
	var total float64
	for u := 0; u < n; u++ {
		du := fdist[u]
		if effU := eff[u]; effU != feff[u] {
			best := inf
			for os := outOff[u]; os < outOff[u+1]; os++ {
				to := outTo[os]
				best = min(best, fdist[to]+(outTx[os]/effU+rxw[to]))
			}
			du = max(du, best)
		}
		total += rates[u] * du
	}
	return total + overheadCost(ev.p, n, eff), nil
}
