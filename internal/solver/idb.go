package solver

import (
	"context"
	"fmt"

	"wrsn/internal/deploy"
	"wrsn/internal/model"
)

// ctxCheckStride is how many inner evaluations (Dijkstra runs) pass
// between context checks in the solvers' hot loops: frequent enough that
// cancellation lands within milliseconds, rare enough to stay invisible
// in profiles.
const ctxCheckStride = 64

// IDB runs the Incremental Deployment-Based heuristic (Section V-B).
//
// Every post starts with one node. The remaining M-N nodes are placed in
// rounds of delta nodes each (a final short round handles any remainder):
// each round enumerates all C(N+delta-1, N-1) ways to spread its delta
// nodes over the posts, evaluates each candidate's minimum-cost routing —
// a shortest-path tree under recharging-cost weights, probed as a
// CostDelta against the round's committed base so only the repriced
// region is recomputed — and commits the cheapest. Smaller delta is
// cheaper per round but greedier; the paper's comparisons use delta = 1.
func IDB(p *model.Problem, delta int) (*Result, error) {
	return IDBCtx(context.Background(), p, delta)
}

// IDBCtx is IDB with cancellation: the context is checked at every round
// boundary and every ctxCheckStride candidate evaluations, so a
// cancelled run returns ctx.Err() within a handful of Dijkstra runs.
func IDBCtx(ctx context.Context, p *model.Problem, delta int) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if delta < 1 {
		return nil, fmt.Errorf("solver: IDB delta must be >= 1, got %d", delta)
	}
	ev, err := p.NewEvaluator()
	if err != nil {
		return nil, err
	}
	cur, _, evaluations, err := idbSearch(ctx, p, ev, delta)
	if err != nil {
		return nil, err
	}
	return finishDeployment(p, ev, cur, evaluations)
}

// IDBInstance runs the IDB search loop over any problem instance.
// Deployment instances take the exact deployment path (routing tree and
// all); other kinds run the same incremental growth generically: with a
// fixed solution total the rounds spread it as for deployment, without
// one the search greedily adds the single best unit per round while that
// strictly improves the cost.
func IDBInstance(ctx context.Context, inst model.Instance, delta int) (*Result, error) {
	if p, ok := inst.(*model.Problem); ok {
		return IDBCtx(ctx, p, delta)
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if delta < 1 {
		return nil, fmt.Errorf("solver: IDB delta must be >= 1, got %d", delta)
	}
	ev, err := inst.NewEvaluator()
	if err != nil {
		return nil, err
	}
	cur, _, evaluations, err := idbSearch(ctx, inst, ev, delta)
	if err != nil {
		return nil, err
	}
	return finishInstance(inst, cur, evaluations)
}

// upperBounds materialises inst's per-dimension upper bounds so the hot
// loops test them as array loads instead of interface calls.
func upperBounds(inst model.Instance) []int {
	ub := make([]int, inst.Dims())
	for i := range ub {
		ub[i] = inst.UpperBound(i)
	}
	return ub
}

// idbSearch is the IDB hot loop over the instance/evaluator seam: it
// grows the solution from the instance's lower bounds and returns the
// final vector, its cost under ev's committed state, and the candidate
// evaluation count. It touches no deployment state; the wrappers own
// validation and result assembly.
func idbSearch(ctx context.Context, inst model.Instance, ev model.Evaluator, delta int) ([]int, float64, int64, error) {
	if delta < 1 {
		return nil, 0, 0, fmt.Errorf("solver: IDB delta must be >= 1, got %d", delta)
	}
	n := inst.Dims()
	cur := model.LowerBoundVector(inst)
	curCost, err := ev.Cost(cur)
	if err != nil {
		return nil, 0, 0, err
	}
	ub := upperBounds(inst)
	var evaluations int64
	moves := make([]model.Move, 0, delta)
	// Dirty-candidate pruning: with a probe cache, each single-unit
	// candidate's repair is snapshotted under its post id; rounds after
	// a commit re-probe only the candidates the commit's dirty region
	// could have changed and re-price the rest bit-exactly from their
	// cached patch (not counted as evaluations — no repair ran).
	pc, _ := ev.(model.ProbeCache)
	if pc != nil {
		pc.EnableProbeCache(n)
	}
	total, fixedTotal := inst.FixedTotal()
	if !fixedTotal {
		cost, err := idbGrow(ctx, inst, ev, pc, cur, curCost, ub, &evaluations)
		if err != nil {
			return nil, 0, 0, err
		}
		return cur, cost, evaluations, nil
	}

	bestExtra := make([]int, n)
	extraMoves := func(extra []int) []model.Move {
		moves = moves[:0]
		for i, e := range extra {
			if e != 0 {
				moves = append(moves, model.Move{Post: i, Delta: e})
			}
		}
		return moves
	}
	remaining := total
	for _, c := range cur {
		remaining -= c
	}
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		step := delta
		if step > remaining {
			step = remaining
		}
		bestCost := -1.0
		found := false
		if step == 1 {
			// δ=1 fast path (the paper's comparisons all run here): a
			// one-node composition is just "post i gets the node", and
			// ForEachComposition(n, 1) enumerates i = n-1 .. 0, so the
			// inline loop below visits the identical candidate order
			// without the O(n) composition-successor and extra-move
			// scans per candidate. Replacing only on
			// cost < bestCost-costSlack is exactly less(): the
			// first-seen placement (largest i) is the lexicographically
			// smallest extra vector, so every tie keeps the incumbent.
			// The upper-bound guard never fires for deployment (one
			// post at its cap forces all others to their floor, leaving
			// nothing to place), so the deployment path is unchanged.
			bestI := -1
			mv := moves[:1] // reuse the shared move buffer (cap >= delta >= 1)
			for i := n - 1; i >= 0; i-- {
				if cur[i]+1 > ub[i] {
					continue
				}
				if pc != nil {
					if cost, ok := pc.CachedCost(i); ok {
						// Bit-identical to re-probing (the cache proves
						// nothing this candidate read has changed), so
						// selection is unchanged; no repair ran, so it
						// does not count as an evaluation.
						if bestI < 0 || cost < bestCost-costSlack {
							bestI = i
							bestCost = cost
						}
						continue
					}
				}
				if evaluations%ctxCheckStride == 0 {
					if err := ctx.Err(); err != nil {
						return nil, 0, 0, err
					}
				}
				mv[0] = model.Move{Post: i, Delta: 1}
				cost, evalErr := ev.CostDelta(mv)
				evaluations++
				if evalErr != nil {
					return nil, 0, 0, evalErr
				}
				if pc != nil {
					pc.CacheProbe(i)
				}
				if evalErr := ev.Revert(); evalErr != nil {
					return nil, 0, 0, evalErr
				}
				if bestI < 0 || cost < bestCost-costSlack {
					bestI = i
					bestCost = cost
				}
			}
			if bestI >= 0 {
				found = true
				for i := range bestExtra {
					bestExtra[i] = 0
				}
				bestExtra[bestI] = 1
			}
		} else {
			var evalFailure error
			loopErr := deploy.ForEachComposition(n, step, func(extra []int) bool {
				for i, e := range extra {
					if e != 0 && cur[i]+e > ub[i] {
						return true // infeasible candidate (never for deployment)
					}
				}
				if evaluations%ctxCheckStride == 0 {
					if err := ctx.Err(); err != nil {
						evalFailure = err
						return false
					}
				}
				cost, evalErr := ev.CostDelta(extraMoves(extra))
				evaluations++
				if evalErr != nil {
					evalFailure = evalErr // impossible once the instance validated; keep the loop honest
					return false
				}
				if evalErr := ev.Revert(); evalErr != nil {
					evalFailure = evalErr
					return false
				}
				// Order by (cost, lexicographic placement) — the same
				// comparator the parallel variant merges with, so both
				// produce identical deployments.
				if !found || less(cost, extra, bestCost, bestExtra) {
					found = true
					bestCost = cost
					copy(bestExtra, extra)
				}
				return true
			})
			if loopErr != nil {
				return nil, 0, 0, loopErr
			}
			if evalFailure != nil {
				return nil, 0, 0, evalFailure
			}
		}
		if !found {
			return nil, 0, 0, fmt.Errorf("solver: IDB round evaluated no candidates (delta=%d)", step)
		}
		// Commit the round winner: promote its cached probe when the
		// cache still holds it (the probe-promoting commit — no second
		// repair), otherwise re-probe its moves (not counted as a
		// candidate evaluation) and accept, making it the next round's
		// base.
		committed := false
		if pc != nil && step == 1 {
			if cost, ok := pc.CommitCached(winnerPost(bestExtra)); ok {
				curCost = cost
				committed = true
			}
		}
		if !committed {
			cost, err := ev.CostDelta(extraMoves(bestExtra))
			if err != nil {
				return nil, 0, 0, err
			}
			if err := ev.Commit(); err != nil {
				return nil, 0, 0, err
			}
			curCost = cost
		}
		for i, e := range bestExtra {
			cur[i] += e
		}
		remaining -= step
	}
	return cur, curCost, evaluations, nil
}

// winnerPost returns the single incremented post of a δ=1 round's extra
// vector (-1 if none).
func winnerPost(extra []int) int {
	for i, e := range extra {
		if e != 0 {
			return i
		}
	}
	return -1
}

// idbGrow is IDB's free-total variant: with no fixed solution sum there
// is no node budget to spread, so each round probes adding one unit to
// every dimension with headroom and commits the cheapest while it
// strictly improves on the committed cost. The unit-wise growth mirrors
// the δ=1 path's candidate order and tie-breaking.
func idbGrow(ctx context.Context, inst model.Instance, ev model.Evaluator, pc model.ProbeCache, cur []int, curCost float64, ub []int, evaluations *int64) (float64, error) {
	n := inst.Dims()
	mv := make([]model.Move, 1)
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		bestI := -1
		bestCost := -1.0
		for i := n - 1; i >= 0; i-- {
			if cur[i]+1 > ub[i] {
				continue
			}
			if pc != nil {
				if cost, ok := pc.CachedCost(i); ok {
					if bestI < 0 || cost < bestCost-costSlack {
						bestI = i
						bestCost = cost
					}
					continue
				}
			}
			if *evaluations%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			mv[0] = model.Move{Post: i, Delta: 1}
			cost, err := ev.CostDelta(mv)
			*evaluations++
			if err != nil {
				return 0, err
			}
			if pc != nil {
				pc.CacheProbe(i)
			}
			if err := ev.Revert(); err != nil {
				return 0, err
			}
			if bestI < 0 || cost < bestCost-costSlack {
				bestI = i
				bestCost = cost
			}
		}
		if bestI < 0 || bestCost >= curCost-costSlack {
			return curCost, nil
		}
		if pc != nil {
			if cost, ok := pc.CommitCached(bestI); ok {
				cur[bestI]++
				curCost = cost
				continue
			}
		}
		mv[0] = model.Move{Post: bestI, Delta: 1}
		cost, err := ev.CostDelta(mv)
		if err != nil {
			return 0, err
		}
		if err := ev.Commit(); err != nil {
			return 0, err
		}
		cur[bestI]++
		curCost = cost
	}
}
