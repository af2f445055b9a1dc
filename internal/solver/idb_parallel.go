package solver

import (
	"context"
	"fmt"
	"math"
	"sync"

	"wrsn/internal/model"
)

// newEvaluators builds one production evaluator per worker.
func newEvaluators(inst model.Instance, workers int) ([]model.Evaluator, error) {
	evaluators := make([]model.Evaluator, workers)
	for i := range evaluators {
		ev, err := inst.NewEvaluator()
		if err != nil {
			return nil, err
		}
		evaluators[i] = ev
	}
	return evaluators, nil
}

// idbParallelSearch is the parallel IDB round loop (δ=1, fixed total)
// over the instance/evaluator seam, with striped candidate ownership:
// worker w permanently owns candidates i ≡ w (mod workers) and keeps
// their probes in its own evaluator's probe cache, so a candidate's
// cached-vs-fresh decision depends only on the committed move sequence —
// identical to the sequential evaluator's — and both per-figure costs
// AND evaluation counts are bit-identical to idbSearch at any worker
// count. Workers publish every candidate's cost into a shared per-round
// array (disjoint stripes, no locking) and the main goroutine replays
// the sequential selection scan over it, so even slack-boundary tie
// chains resolve exactly as idbSearch would. After the merge, every
// worker applies the winner as a delta commit — promoted straight from
// its cache when it owns the winner — replacing the old full-Dijkstra
// rebase per round.
func idbParallelSearch(ctx context.Context, inst model.Instance, evaluators []model.Evaluator) ([]int, int64, error) {
	n := inst.Dims()
	cur := model.LowerBoundVector(inst)
	ub := upperBounds(inst)
	remaining, _ := inst.FixedTotal()
	for _, c := range cur {
		remaining -= c
	}
	workers := len(evaluators)
	for _, ev := range evaluators {
		if _, err := ev.Cost(cur); err != nil {
			return nil, 0, err
		}
		ev.EnableProbeCache(n)
	}
	var evaluations int64
	costs := make([]float64, n)
	counts := make([]int64, workers)
	errs := make([]error, workers)
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if w >= n {
					return // more workers than candidates: empty stripe
				}
				ev := evaluators[w]
				var mv [1]model.Move
				var seen int64
				for i := w + ((n - 1 - w) / workers * workers); i >= 0; i -= workers {
					if cur[i]+1 > ub[i] {
						continue
					}
					seen++
					if seen%ctxCheckStride == 0 {
						if err := ctx.Err(); err != nil {
							errs[w] = err
							return
						}
					}
					// Exact pricing (limit +Inf): a worker's running
					// best over its stripe is not the sequential scan's
					// incumbent, so no limit from it is sound against the
					// replay below.
					if cost, _, ok := ev.CachedCostBounded(i, math.Inf(1)); ok {
						costs[i] = cost
						continue
					}
					mv[0] = model.Move{Post: i, Delta: 1}
					cost, _, err := priceCandidate(ev, i, mv[:], math.Inf(1))
					counts[w]++
					if err != nil {
						errs[w] = err
						return
					}
					costs[i] = cost
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			evaluations += counts[w]
			counts[w] = 0
			if errs[w] != nil {
				return nil, 0, errs[w]
			}
		}
		// Replay the sequential winner scan over the published costs.
		bestI := -1
		bestCost := 0.0
		for i := n - 1; i >= 0; i-- {
			if cur[i]+1 > ub[i] {
				continue
			}
			if bestI < 0 || costs[i] < bestCost-costSlack {
				bestI = i
				bestCost = costs[i]
			}
		}
		if bestI < 0 {
			return nil, 0, fmt.Errorf("solver: IDB round evaluated no candidates (delta=1)")
		}
		// Commit the winner into every worker's evaluator so the caches
		// stay coherent with the shared base.
		for _, ev := range evaluators {
			if _, ok := ev.CommitCached(bestI); ok {
				continue
			}
			var mv [1]model.Move
			mv[0] = model.Move{Post: bestI, Delta: 1}
			if _, err := ev.CostDelta(mv[:]); err != nil {
				return nil, 0, err
			}
			if err := ev.Commit(); err != nil {
				return nil, 0, err
			}
		}
		cur[bestI]++
		remaining--
	}
	return cur, evaluations, nil
}
