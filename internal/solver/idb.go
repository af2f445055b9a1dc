package solver

import (
	"context"
	"fmt"
	"math"

	"wrsn/internal/deploy"
	"wrsn/internal/model"
)

// ctxCheckStride is how many inner evaluations (Dijkstra runs) pass
// between context checks in the solvers' hot loops: frequent enough that
// cancellation lands within milliseconds, rare enough to stay invisible
// in profiles.
const ctxCheckStride = 64

// IDBOptions configures IDB.
type IDBOptions struct {
	// Delta is the per-round node increment (>= 1; the paper uses 1).
	Delta int
}

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
//
// Other problem kinds run the same incremental growth generically: with
// a fixed solution total the rounds spread it as for deployment, without
// one the search greedily adds the single best unit per round while that
// strictly improves the cost.
//
// The context is checked at every round boundary and every
// ctxCheckStride candidate evaluations, so a cancelled run returns
// ctx.Err() within a handful of Dijkstra runs.
func IDB(ctx context.Context, inst model.Instance, opts IDBOptions) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if opts.Delta < 1 {
		return nil, fmt.Errorf("solver: IDB delta must be >= 1, got %d", opts.Delta)
	}
	ev, err := inst.NewEvaluator()
	if err != nil {
		return nil, err
	}
	cur, evaluations, err := idbSearch(ctx, inst, ev, opts.Delta)
	if err != nil {
		return nil, err
	}
	return finish(inst, ev, cur, evaluations)
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
// final vector (ev ends committed on it) and the candidate evaluation
// count. It touches no deployment state; IDB owns validation and result
// assembly.
func idbSearch(ctx context.Context, inst model.Instance, ev model.Evaluator, delta int) ([]int, int64, error) {
	n := inst.Dims()
	cur := model.LowerBoundVector(inst)
	curCost, err := ev.Cost(cur)
	if err != nil {
		return nil, 0, err
	}
	ub := upperBounds(inst)
	var evaluations int64
	moves := make([]model.Move, 0, delta)
	// Dirty-candidate pruning: each single-unit candidate's repair is
	// snapshotted under its post id; rounds after a commit re-probe only
	// the candidates the commit's dirty region could have changed and
	// re-price the rest bit-exactly from their cached patch (not counted
	// as evaluations — no repair ran).
	ev.EnableProbeCache(n)
	total, fixedTotal := inst.FixedTotal()
	if !fixedTotal {
		if err := idbGrow(ctx, ev, cur, curCost, ub, &evaluations); err != nil {
			return nil, 0, err
		}
		return cur, evaluations, nil
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
			return nil, 0, err
		}
		step := delta
		if step > remaining {
			step = remaining
		}
		found := false
		if step == 1 {
			// δ=1 fast path (the paper's comparisons all run here): a
			// one-node composition is just "post i gets the node", and
			// ForEachComposition(n, 1) enumerates i = n-1 .. 0, so
			// bestUnitAdd visits the identical candidate order without
			// the O(n) composition-successor and extra-move scans per
			// candidate, and picks the same winner (see there). The
			// upper-bound guard never fires for deployment (one post at
			// its cap forces all others to their floor, leaving nothing
			// to place), so the deployment path is unchanged.
			bestI, _, err := bestUnitAdd(ctx, ev, cur, ub, &evaluations)
			if err != nil {
				return nil, 0, err
			}
			if bestI >= 0 {
				found = true
				for i := range bestExtra {
					bestExtra[i] = 0
				}
				bestExtra[bestI] = 1
			}
		} else {
			var bestCost float64
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
				if evalErr == nil {
					evalErr = ev.Revert()
				}
				if evalErr != nil {
					evalFailure = evalErr // impossible once the instance validated; keep the loop honest
					return false
				}
				// ForEachComposition visits compositions in ascending
				// lexicographic order, so keeping the incumbent on a tie
				// (within costSlack) picks the lexicographically smallest
				// placement among the cheapest.
				if !found || cost < bestCost-costSlack {
					found = true
					bestCost = cost
					copy(bestExtra, extra)
				}
				return true
			})
			if loopErr != nil {
				return nil, 0, loopErr
			}
			if evalFailure != nil {
				return nil, 0, evalFailure
			}
		}
		if !found {
			return nil, 0, fmt.Errorf("solver: IDB round evaluated no candidates (delta=%d)", step)
		}
		// Commit the round winner: promote its cached probe when the
		// cache still holds it (the probe-promoting commit — no second
		// repair), otherwise re-probe its moves (not counted as a
		// candidate evaluation) and accept, making it the next round's
		// base.
		committed := false
		if step == 1 {
			_, committed = ev.CommitCached(winnerPost(bestExtra))
		}
		if !committed {
			if _, err := ev.CostDelta(extraMoves(bestExtra)); err != nil {
				return nil, 0, err
			}
			if err := ev.Commit(); err != nil {
				return nil, 0, err
			}
		}
		for i, e := range bestExtra {
			cur[i] += e
		}
		remaining -= step
	}
	return cur, evaluations, nil
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
func idbGrow(ctx context.Context, ev model.Evaluator, cur []int, curCost float64, ub []int, evaluations *int64) error {
	mv := make([]model.Move, 1)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		bestI, bestCost, err := bestUnitAdd(ctx, ev, cur, ub, evaluations)
		if err != nil {
			return err
		}
		if bestI < 0 || bestCost >= curCost-costSlack {
			return nil
		}
		if cost, ok := ev.CommitCached(bestI); ok {
			cur[bestI]++
			curCost = cost
			continue
		}
		mv[0] = model.Move{Post: bestI, Delta: 1}
		cost, err := ev.CostDelta(mv)
		if err != nil {
			return err
		}
		if err := ev.Commit(); err != nil {
			return err
		}
		cur[bestI]++
		curCost = cost
	}
}

// bestUnitAdd scans the unit-add candidates i = n-1 .. 0 with headroom
// under ub and returns the round winner (-1 when none has headroom) and
// its cost. Fresh probes count in *evaluations; cached re-prices and
// candidates PruneUnitAdd rejects before a probe ran no repair and do
// not. A candidate replaces the incumbent only on
// cost < bestCost-costSlack: the first-seen placement (largest i) is
// the lexicographically smallest extra vector, so every tie keeps the
// incumbent, the same test and order as the δ>1 rounds. That test is also
// the pricing limit — a candidate priced pruned or rejected (exact cost
// >= limit) could not have replaced the incumbent, so bounded pricing
// never changes the winner.
func bestUnitAdd(ctx context.Context, ev model.Evaluator, cur, ub []int, evaluations *int64) (int, float64, error) {
	mv := make([]model.Move, 1)
	bestI, bestCost := -1, 0.0
	for i := len(cur) - 1; i >= 0; i-- {
		if cur[i]+1 > ub[i] {
			continue
		}
		limit := math.Inf(1)
		if bestI >= 0 {
			limit = bestCost - costSlack
		}
		cost, pruned, hit := ev.CachedCostBounded(i, limit)
		if !hit {
			if bestI >= 0 && ev.PruneUnitAdd(i, limit) {
				continue // rejected from the committed tree: no probe ran
			}
			if *evaluations%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return 0, 0, err
				}
			}
			mv[0] = model.Move{Post: i, Delta: 1}
			var err error
			cost, pruned, err = ev.CostDeltaCached(i, mv, limit)
			*evaluations++
			if err == nil && !pruned {
				err = ev.Revert() // leave ev idle; the repair stays in slot i
			}
			if err != nil {
				return 0, 0, err
			}
		}
		if !pruned && (bestI < 0 || cost < limit) {
			bestI, bestCost = i, cost
		}
	}
	return bestI, bestCost, nil
}
