package solver

import (
	"context"
	"fmt"
	"math"
	"sync"

	"wrsn/internal/deploy"
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

// idbParallelSearch is the parallel IDB hot loop over the
// instance/evaluator seam: fixed-total rounds fan candidate compositions
// out to the worker evaluators and merge with the sequential loop's
// comparator, so the result is bit-identical to idbSearch at any worker
// count.
func idbParallelSearch(ctx context.Context, inst model.Instance, evaluators []model.Evaluator, delta int) ([]int, int64, error) {
	n := inst.Dims()
	workers := len(evaluators)
	cur := model.LowerBoundVector(inst)
	ub := upperBounds(inst)
	total, _ := inst.FixedTotal()
	remaining := total
	for _, c := range cur {
		remaining -= c
	}
	if delta == 1 {
		return idbParallelUnit(ctx, inst, evaluators, cur, ub, remaining)
	}
	var evaluations int64
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		step := delta
		if step > remaining {
			step = remaining
		}

		candidates := make(chan []int, workers*4)
		type roundBest struct {
			cost  float64
			extra []int
			found bool
			err   error
			count int64
		}
		results := make([]roundBest, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ev := evaluators[w]
				best := &results[w]
				// Rebase this worker's evaluator on the round's committed
				// deployment; every candidate is then a delta probe.
				if _, err := ev.Cost(cur); err != nil {
					best.err = err
				}
				var moves []model.Move
				for extra := range candidates {
					if best.err != nil {
						continue // drain the queue after a failure
					}
					if best.count%ctxCheckStride == 0 {
						if err := ctx.Err(); err != nil {
							best.err = err
							continue
						}
					}
					moves = moves[:0]
					for i, e := range extra {
						if e != 0 {
							moves = append(moves, model.Move{Post: i, Delta: e})
						}
					}
					cost, err := ev.CostDelta(moves)
					best.count++
					if err != nil {
						best.err = err
						continue
					}
					if err := ev.Revert(); err != nil {
						best.err = err
						continue
					}
					if !best.found || less(cost, extra, best.cost, best.extra) {
						best.found = true
						best.cost = cost
						best.extra = append(best.extra[:0], extra...)
					}
				}
			}(w)
		}
		var ctxErr error
		loopErr := deploy.ForEachComposition(n, step, func(extra []int) bool {
			for i, e := range extra {
				if e != 0 && cur[i]+e > ub[i] {
					return true // infeasible candidate (never for deployment)
				}
			}
			if err := ctx.Err(); err != nil {
				ctxErr = err // stop feeding; a partial round must not commit
				return false
			}
			candidates <- append([]int(nil), extra...)
			return true
		})
		close(candidates)
		wg.Wait()
		if loopErr != nil {
			return nil, 0, loopErr
		}
		if ctxErr != nil {
			return nil, 0, ctxErr
		}

		merged := roundBest{}
		for w := range results {
			r := &results[w]
			evaluations += r.count
			if r.err != nil {
				return nil, 0, r.err
			}
			if r.found && (!merged.found || less(r.cost, r.extra, merged.cost, merged.extra)) {
				merged = *r
			}
		}
		if !merged.found {
			return nil, 0, fmt.Errorf("solver: IDB round evaluated no candidates (delta=%d)", step)
		}
		for i, e := range merged.extra {
			cur[i] += e
		}
		remaining -= step
	}
	return cur, evaluations, nil
}

// idbParallelUnit is the δ=1 parallel round loop with striped candidate
// ownership: worker w permanently owns candidates i ≡ w (mod workers)
// and keeps their probes in its own evaluator's probe cache, so a
// candidate's cached-vs-fresh decision depends only on the committed
// move sequence — identical to the sequential evaluator's — and both
// per-figure costs AND evaluation counts are bit-identical to idbSearch
// at any worker count. Workers publish every candidate's cost into a
// shared per-round array (disjoint stripes, no locking) and the main
// goroutine replays the sequential selection scan over it, so even
// slack-boundary tie chains resolve exactly as idbSearch would. After
// the merge, every worker applies the winner as a delta commit —
// promoted straight from its cache when it owns the winner — replacing
// the old full-Dijkstra rebase per round.
func idbParallelUnit(ctx context.Context, inst model.Instance, evaluators []model.Evaluator, cur, ub []int, remaining int) ([]int, int64, error) {
	n := inst.Dims()
	workers := len(evaluators)
	caches := make([]model.ProbeCache, workers)
	for w, ev := range evaluators {
		if _, err := ev.Cost(cur); err != nil {
			return nil, 0, err
		}
		if pc, ok := ev.(model.ProbeCache); ok {
			pc.EnableProbeCache(n)
			caches[w] = pc
		}
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
				ev, pc := evaluators[w], caches[w]
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
					if pc != nil {
						if cost, _, ok := pc.CachedCostBounded(i, math.Inf(1)); ok {
							costs[i] = cost
							continue
						}
					}
					mv[0] = model.Move{Post: i, Delta: 1}
					cost, _, err := priceCandidate(ev, pc, i, mv[:], math.Inf(1))
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
		for w, ev := range evaluators {
			if caches[w] != nil {
				if _, ok := caches[w].CommitCached(bestI); ok {
					continue
				}
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

// less orders candidates by (cost, lexicographic placement): exactly the
// candidate the sequential enumeration commits to, making the parallel
// run deterministic regardless of goroutine scheduling. Cost comparisons
// use costSlack so floating-point noise cannot flip the placement order.
func less(costA float64, extraA []int, costB float64, extraB []int) bool {
	if costA < costB-costSlack {
		return true
	}
	if costA > costB+costSlack {
		return false
	}
	for i := range extraA {
		if extraA[i] != extraB[i] {
			return extraA[i] < extraB[i]
		}
	}
	return false
}
