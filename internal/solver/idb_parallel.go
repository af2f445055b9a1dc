package solver

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"wrsn/internal/deploy"
	"wrsn/internal/model"
)

// IDBOptions configures IDBWithOptions.
type IDBOptions struct {
	// Delta is the per-round node increment (>= 1; the paper uses 1).
	Delta int
	// Workers is the number of goroutines evaluating candidate
	// placements concurrently; 0 means GOMAXPROCS, 1 runs sequentially.
	// Each worker carries its own evaluator (the protocol is
	// not concurrency-safe), so memory scales with
	// workers while results remain bit-identical to the sequential run
	// (the winning candidate is the cost-minimal one, ties broken by
	// lexicographically smallest placement — the same candidate the
	// sequential enumeration finds first).
	Workers int
}

// IDBWithOptions runs the Incremental Deployment-Based heuristic with a
// configurable parallel evaluation pool. IDB's inner loop — one Dijkstra
// per candidate placement per round — is embarrassingly parallel, and at
// the paper's large scales (Figs. 8-10) it dominates total runtime.
func IDBWithOptions(p *model.Problem, opts IDBOptions) (*Result, error) {
	return IDBWithOptionsCtx(context.Background(), p, opts)
}

// IDBWithOptionsCtx is IDBWithOptions with cancellation: the context is
// checked at round boundaries, by the candidate producer, and by every
// evaluation worker on a ctxCheckStride cadence, so a cancelled run
// stops feeding work and returns ctx.Err() within a few Dijkstra runs.
func IDBWithOptionsCtx(ctx context.Context, p *model.Problem, opts IDBOptions) (*Result, error) {
	if opts.Delta < 1 {
		return nil, fmt.Errorf("solver: IDB delta must be >= 1, got %d", opts.Delta)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return IDBCtx(ctx, p, opts.Delta)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	evaluators, err := newEvaluators(p, workers)
	if err != nil {
		return nil, err
	}
	cur, evaluations, err := idbParallelSearch(ctx, p, evaluators, opts.Delta)
	if err != nil {
		return nil, err
	}
	return finishDeployment(p, evaluators[0], cur, evaluations)
}

// IDBWithOptionsInstance runs the parallel IDB search over any problem
// instance. Deployment instances take the exact deployment path; other
// fixed-total kinds run the same parallel round structure generically.
// Free-total instances fall back to the sequential search: their rounds
// probe only one unit-add per dimension, too little work to farm out.
func IDBWithOptionsInstance(ctx context.Context, inst model.Instance, opts IDBOptions) (*Result, error) {
	if p, ok := inst.(*model.Problem); ok {
		return IDBWithOptionsCtx(ctx, p, opts)
	}
	if _, fixed := inst.FixedTotal(); !fixed {
		return IDBInstance(ctx, inst, opts.Delta)
	}
	if opts.Delta < 1 {
		return nil, fmt.Errorf("solver: IDB delta must be >= 1, got %d", opts.Delta)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return IDBInstance(ctx, inst, opts.Delta)
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	evaluators, err := newEvaluators(inst, workers)
	if err != nil {
		return nil, err
	}
	cur, evaluations, err := idbParallelSearch(ctx, inst, evaluators, opts.Delta)
	if err != nil {
		return nil, err
	}
	return finishInstance(inst, cur, evaluations)
}

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
					if pc != nil {
						if cost, ok := pc.CachedCost(i); ok {
							costs[i] = cost
							continue
						}
					}
					mv[0] = model.Move{Post: i, Delta: 1}
					cost, err := ev.CostDelta(mv[:])
					counts[w]++
					if err != nil {
						errs[w] = err
						return
					}
					if pc != nil {
						pc.CacheProbe(i)
					}
					if err := ev.Revert(); err != nil {
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
