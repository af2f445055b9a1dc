package solver

import (
	"context"
	"fmt"

	"wrsn/internal/model"
)

// LocalSearchOptions configures LocalSearch.
type LocalSearchOptions struct {
	// Start seeds the search; nil seeds deployment with iterative RFH
	// and other kinds with the instance's own heuristic (or its lower
	// bounds). Any valid Result works — seeding with IDB's output
	// polishes the best heuristic, seeding with RFH's buys most of IDB's
	// quality at a fraction of its cost.
	Start *Result
	// MaxPasses bounds full sweeps over all node-move pairs; 0 means
	// run until a local optimum (every sweep must improve to continue,
	// so termination is guaranteed — the cost strictly decreases and
	// the deployment space is finite).
	MaxPasses int
}

// LocalSearch is a hill-climber, an extension beyond the paper's two
// heuristics: starting from a seed solution it repeatedly moves one unit
// (for deployment, one node from its post to another) when that strictly
// lowers the cost (evaluated exactly — each probe is a two-move
// CostDelta repairing the standing shortest-path solution, committed on
// acceptance), until no single move improves. The result is therefore
// 1-move-optimal: a deployment where IDB-style greedy additions and
// removals have no regrets left. Instances without a fixed solution
// total widen the neighbourhood by single-unit adds and removals.
//
// The context is checked every ctxCheckStride move probes (and flows
// into the seed run), so a cancelled climb returns ctx.Err() within a
// handful of Dijkstra runs.
func LocalSearch(ctx context.Context, inst model.Instance, opts LocalSearchOptions) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	cur, seedEvals, err := seedVector(ctx, inst, opts.Start)
	if err != nil {
		return nil, err
	}
	ev, err := inst.NewEvaluator()
	if err != nil {
		return nil, err
	}
	evaluations, err := climb(ctx, inst, ev, cur, opts.MaxPasses)
	if err != nil {
		return nil, err
	}
	return finish(inst, ev, cur, evaluations+seedEvals)
}

// seedVector picks the refinement solvers' starting vector and the
// evaluations spent building it. The caller's start wins when given.
// Otherwise the deployment problem seeds from iterative RFH, and other
// kinds from the instance's own construction heuristic when it
// implements SeedHeuristic, the lower-bound vector failing that.
// Deployment results count only their own search's evaluations, so a
// deployment seed reports 0; other kinds count their seed heuristic's.
func seedVector(ctx context.Context, inst model.Instance, start *Result) ([]int, int64, error) {
	if p, ok := inst.(*model.Problem); ok {
		if start == nil {
			s, err := RFH(ctx, p, RFHOptions{Iterations: DefaultRFHIterations})
			if err != nil {
				return nil, 0, fmt.Errorf("solver: could not build a seed: %w", err)
			}
			start = s
		}
		if err := p.ValidateSolution(start.Deploy); err != nil {
			return nil, 0, fmt.Errorf("solver: invalid seed: %w", err)
		}
		return []int(start.Deploy.Clone()), 0, nil
	}
	if start != nil {
		if start.Vector == nil {
			return nil, 0, fmt.Errorf("solver: seed result for %q instance carries no vector", inst.Kind())
		}
		if err := inst.ValidateSolution(start.Vector); err != nil {
			return nil, 0, fmt.Errorf("solver: invalid seed: %w", err)
		}
		return append([]int(nil), start.Vector...), 0, nil
	}
	if sh, ok := inst.(model.SeedHeuristic); ok {
		vec, evals, err := sh.SeedSolution(ctx)
		if err != nil {
			return nil, 0, fmt.Errorf("solver: could not build a seed: %w", err)
		}
		if err := inst.ValidateSolution(vec); err != nil {
			return nil, 0, fmt.Errorf("solver: instance heuristic built an invalid seed: %w", err)
		}
		return vec, evals, nil
	}
	return model.LowerBoundVector(inst), 0, nil
}

// climb is the hill-climbing hot loop over the instance/evaluator seam:
// first-improvement sweeps over the move neighbourhood, re-scanning from
// the new state after every accepted move, until a pass finds nothing
// (or maxPasses is hit). The neighbourhood is all single-unit transfers
// between dimensions; instances without a fixed solution total
// additionally climb single-unit removals and additions. cur is mutated
// in place; the evaluator ends committed on it.
func climb(ctx context.Context, inst model.Instance, ev model.Evaluator, cur []int, maxPasses int) (int64, error) {
	n := inst.Dims()
	ub := upperBounds(inst)
	lb := make([]int, n)
	for i := range lb {
		lb[i] = inst.LowerBound(i)
	}
	_, fixedTotal := inst.FixedTotal()
	curCost, err := ev.Cost(cur)
	if err != nil {
		return 0, err
	}
	// Dirty-candidate pruning: first-improvement sweeps restart from the
	// top of the neighbourhood after every accepted move, so the same
	// early candidates are probed again and again. With a probe cache
	// each candidate's repair is snapshotted under a stable slot id —
	// removal i at i, addition i at n+i, transfer (from,to) at
	// 2n+from*n+to — and re-priced bit-exactly unless the accepted move
	// dirtied something it read; accepted cached candidates promote
	// straight to the committed state. Cache hits run no repair and are
	// not counted as evaluations.
	pc, _ := ev.(model.ProbeCache)
	if pc != nil {
		pc.EnableProbeCache(2*n + n*n)
	}
	var evaluations, probes int64
	moves := make([]model.Move, 2)
	// probe prices mv (cached under slot id when possible); on strict
	// improvement it commits, applies the move to cur, and reports
	// acceptance.
	probe := func(id int, mv []model.Move) (bool, error) {
		if probes%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		probes++
		// Only a candidate below limit is accepted, so an answer priced
		// pruned (exact cost >= limit) rejects exactly what the accept
		// test would.
		limit := curCost - costSlack
		if pc != nil {
			if cost, pruned, ok := pc.CachedCostBounded(id, limit); ok {
				if pruned || cost >= limit {
					return false, nil
				}
				if promoted, ok := pc.CommitCached(id); ok {
					for _, m := range mv {
						cur[m.Post] += m.Delta
					}
					curCost = promoted
					return true, nil
				}
				// Promotion declined (never expected after a hit):
				// fall through to a fresh probe.
			}
		}
		cost, pruned, evalErr := probeCandidate(ev, pc, id, mv, limit)
		evaluations++
		if evalErr != nil || pruned {
			return false, evalErr
		}
		if cost < limit {
			if err := ev.Commit(); err != nil {
				return false, err
			}
			for _, m := range mv {
				cur[m.Post] += m.Delta
			}
			curCost = cost
			return true, nil
		}
		if err := ev.Revert(); err != nil {
			return false, err
		}
		return false, nil
	}
	for pass := 0; maxPasses == 0 || pass < maxPasses; pass++ {
		improved := false
		// Free-total neighbourhood first: dropping a redundant unit (or
		// adding a missing one) is the cheap move, so try it before the
		// quadratic transfer scan. Never reached with a fixed total.
		if !fixedTotal {
			for i := 0; i < n && !improved; i++ {
				if cur[i]-1 >= lb[i] {
					ok, err := probe(i, []model.Move{{Post: i, Delta: -1}})
					if err != nil {
						return 0, err
					}
					improved = ok
				}
			}
			for i := 0; i < n && !improved; i++ {
				if cur[i]+1 <= ub[i] {
					ok, err := probe(n+i, []model.Move{{Post: i, Delta: 1}})
					if err != nil {
						return 0, err
					}
					improved = ok
				}
			}
		}
		for from := 0; from < n && !improved; from++ {
			if cur[from] <= lb[from] {
				continue // every dimension keeps its floor
			}
			for to := 0; to < n; to++ {
				if to == from || cur[to]+1 > ub[to] {
					continue
				}
				moves[0] = model.Move{Post: from, Delta: -1}
				moves[1] = model.Move{Post: to, Delta: 1}
				ok, err := probe(2*n+from*n+to, moves)
				if err != nil {
					return 0, err
				}
				if ok {
					improved = true
					break // first improvement: re-scan from the new state
				}
			}
		}
		if !improved {
			break
		}
	}
	return evaluations, nil
}
