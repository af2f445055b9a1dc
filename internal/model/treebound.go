package model

import "wrsn/internal/graph"

// treeMarginScale sets PruneUnitAdd's float margin at
// (n+2)·2⁻⁴⁰·(C + R·S), C the committed cost, R the total rate and S the
// subtree walk's margin scale: the same scale as patchBound's, and
// about 870× the rounding error DESIGN.md §9 derives for the bound.
const treeMarginScale = 0x1p-40

// treeBound holds PruneUnitAdd's tables. maxTx depends on the topology
// alone; subRate and subRC are built with the subtree walk's table, from
// the same committed state.
type treeBound struct {
	maxTx   []float64 // per post: the tx of its costliest out-edge
	subRate []float64 // per post: the total rate of its committed subtree
	subRC   []float64 // per post: the least minRC in its committed subtree
	order   []int     // leaves-first scratch
	pending []int
}

// newTreeBound sizes PruneUnitAdd's tables for n posts and fills maxTx
// from the topology c.
func newTreeBound(c *commCSR, n int) *treeBound {
	tb := &treeBound{
		maxTx:   make([]float64, n),
		subRate: make([]float64, n),
		subRC:   make([]float64, n),
		order:   make([]int, 0, n),
		pending: make([]int, n),
	}
	for u := 0; u < n; u++ {
		for os := c.outOff[u]; os < c.outOff[u+1]; os++ {
			tb.maxTx[u] = max(tb.maxTx[u], c.outTx[os])
		}
	}
	return tb
}

// buildTables builds the subtree walk's table from the committed state,
// then extends it with each post's subtree rate and least reduced cost,
// folded up the committed tree in one leaves-first pass.
func (ev *IncrementalEvaluator) buildTables() {
	ev.buildTreeTable()
	n, tb := ev.n, ev.tb
	if tb == nil {
		tb = newTreeBound(ev.c, n)
		ev.tb = tb
	}
	copy(tb.subRate, ev.rates)
	copy(tb.subRC, ev.minRC)
	tb.order = graph.LeavesFirst(ev.par, nil, tb.order, tb.pending)
	for _, u := range tb.order {
		if p := ev.par[u]; p >= 0 && p < n {
			tb.subRate[p] += tb.subRate[u]
			tb.subRC[p] = min(tb.subRC[p], tb.subRC[u])
		}
	}
}

// PruneUnitAdd reports whether adding one node to post provably costs
// at least limit+boundedSlack, judged from the committed tight tree
// without a repair. A true answer leaves the evaluator untouched and is
// not a probe (it counts in EvalStats.TreePrunes, not in Probes); false
// says nothing, and the caller probes. It answers false unless the
// evaluator is idle on a committed deployment, the limit is finite, the
// graph is above the scan-min regime (whose child lists are stale), the
// problem has no overhead term and the node raises post's efficiency.
//
// Let i be post and g = Δd + σ, with Δd the drop in i's own distance
// when it is re-seeded from its out-row (as seedUp does) and σ its
// reception saving rx/eff − rx/eff′. No vertex improves by more than g,
// since every improved route enters i once; a vertex in i's committed
// subtree improves by at most g; and a vertex outside it improves only
// along a route that enters the subtree by a non-tree edge, so by at
// most g − ρ_i, ρ_i the least minRC over the subtree. With S_i the
// subtree's rate and R the total rate the candidate costs at least
//
//	C − [r_i·Δd + (S_i − r_i)·g + (R − S_i)·max(0, g + rcMargin − ρ_i)]
//
// less a float margin. Stage 1 bounds Δd by maxTx_i·(1/eff − 1/eff′)
// in O(1); only when that fails does stage 2 price the exact re-seed over
// i's out-row. DESIGN.md §9 has the proof and the margin.
func (ev *IncrementalEvaluator) PruneUnitAdd(post int, limit float64) bool {
	if !ev.have || ev.state != stateIdle || post < 0 || post >= ev.n || !(limit < inf) ||
		ev.n+1 <= tinyVerts || ev.p.HasOverhead() {
		return false
	}
	effOld := ev.eff[post]
	effNew, err := ev.netEff(ev.m[post] + 1)
	if err != nil || !(effNew > effOld) {
		return false
	}
	if !ev.treeOK {
		ev.buildTables()
	}
	thr := limit + boundedSlack
	margin := float64(float64(ev.n+2) * (float64(ev.cost*treeMarginScale) + float64(ev.rateTotal*ev.rcMargin)))
	base := ev.cost - margin
	di := ev.dist[post]
	sigma := ev.rxw[post] - ev.rx/effNew
	// Stage 1: Δd ≤ maxTx·(1/eff − 1/eff′), with a relative margin for
	// the difference of two terms that may dwarf it.
	maxTx := ev.tb.maxTx[post]
	a := maxTx / effOld
	dd := (a - maxTx/effNew) + float64(a*treeMarginScale)
	if base-ev.unitAddLoss(post, min(di, dd), sigma) >= thr {
		ev.stats.TreePrunes++
		return true
	}
	// Stage 2: the re-seed seedUp would price, without writing it.
	c := ev.c
	seed := di
	for os := c.outOff[post]; os < c.outOff[post+1]; os++ {
		to := c.outTo[os]
		if cand := ev.dist[to] + (c.outTx[os]/effNew + ev.rxw[to]); cand < seed {
			seed = cand
		}
	}
	if base-ev.unitAddLoss(post, di-seed, sigma) >= thr {
		ev.stats.TreePrunes++
		return true
	}
	return false
}

// PruneUnitAdd never rejects: the oracle prices every candidate. (It
// lives here, after the evaluators' hot code, like the rest of the
// bound.)
func (r *ReferenceEvaluator) PruneUnitAdd(int, float64) bool { return false }

// unitAddLoss is PruneUnitAdd's bracket: the most a unit add at post,
// whose own distance drops by at most dd and whose reception saves
// sigma, can take off the committed cost.
func (ev *IncrementalEvaluator) unitAddLoss(post int, dd, sigma float64) float64 {
	tb := ev.tb
	g := dd + sigma
	ri, si := ev.rates[post], tb.subRate[post]
	outside := max(0, ev.rateTotal-si)
	entry := max(0, (g+ev.rcMargin)-tb.subRC[post])
	return float64(ri*dd) + float64((si-ri)*g) + float64(outside*entry)
}
