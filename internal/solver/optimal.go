package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"wrsn/internal/deploy"
	"wrsn/internal/model"
)

// OptimalOptions configures the exact branch-and-bound solver.
type OptimalOptions struct {
	// MaxEvaluations aborts the search after this many *completed*
	// deployment evaluations: bound probes that produced a cost, the
	// root's included. Pruned probes never produce a cost and do not
	// count, at any instance size: those the relay bound or the parent's
	// floor bound rejects before any move is applied, and, on graphs of
	// at most 16 vertices, those the bounded evaluator abandons
	// mid-settle. These are the semantics of the Result.Evaluations
	// counter. 0 means unlimited. When the search aborts,
	// ErrSearchBudget is returned.
	MaxEvaluations int64
	// Incumbent optionally seeds the search with a known-feasible
	// solution (e.g. from IDB); nil lets Optimal run sequential IDB(1)
	// itself.
	Incumbent *Result
}

// optimalTrace records how a branch-and-bound run spent its probes:
// every search node's bound probe counts once in probes, and stats are
// its evaluator's counters. A search whose context carries one under
// optimalTraceKey fills it however the search ends.
type optimalTrace struct {
	probes int64
	stats  model.EvalStats
}

type optimalTraceKey struct{}

// fill records a finished search's probe count and evaluator counters.
// It stays out of line so that Optimal's code does not grow with the
// counter set.
//
//go:noinline
func (tr *optimalTrace) fill(probes int64, ev *model.IncrementalEvaluator) {
	tr.probes, tr.stats = probes, ev.Stats()
}

// ErrSearchBudget is returned when Optimal exceeds MaxEvaluations.
var ErrSearchBudget = errors.New("solver: optimal search exceeded its evaluation budget")

// costSlack absorbs floating-point noise when comparing candidate costs
// during the exact search, so bound-vs-incumbent pruning is never unsound
// by a rounding error. Costs are O(1e2..1e4) nJ with O(1e-13) relative
// noise; 1e-9 is orders of magnitude above both.
const costSlack = 1e-9

// Optimal computes the exact minimum total recharging cost by
// branch-and-bound over deployments. It relies on two structural facts:
//
//  1. For a fixed deployment the optimal routing is a shortest-path tree
//     under recharging-cost weights, so evaluating a deployment is one
//     shortest-path computation — probed as a delta against the
//     previously evaluated vector (model.IncrementalEvaluator), so
//     sibling search nodes pay only for the posts they change.
//  2. The cost is monotone non-increasing in every m_i, so giving every
//     undecided post the largest node count it could still receive yields
//     an admissible lower bound for the whole subtree of completions.
//     The same monotonicity makes an expanded node's exact bound
//     distances a floor under every child's, so most doomed child bounds
//     are rejected from that floor before any move is applied
//     (model.IncrementalEvaluator.PruneByFloor).
//  3. The undecided posts share one budget, and routing through a post
//     costs it energy that more nodes would make cheaper. A Lagrangian
//     multiplier on the shared budget turns that into a bound linear in
//     the post energies, priced by one shortest-path tree, which rejects
//     whole nodes before their bound probe
//     (model.IncrementalEvaluator.PruneByRelayBound).
//
// Posts are branched in decreasing order of routing workload under the
// incumbent's tree, with larger node counts tried first — the shape the
// optimum overwhelmingly takes — so the incumbent prunes aggressively.
// Practical for the paper's small-scale comparison (Fig. 7: N<=12,
// M<=36); use IDB or RFH beyond that.
//
// Optimal solves only the deployment problem and rejects every other
// kind with an UnsupportedError: the admissible bound assumes the cost
// is monotone non-increasing in every dimension, which is a theorem for
// deployment (more nodes never worsen the optimal routing) and false in
// general — charger placement's site costs grow with every added unit.
//
// The context is checked on a ctxCheckStride cadence inside the
// branch-and-bound's evaluation closure — the single funnel every search
// node passes through, relay and floor rejections included — so a
// cancelled search unwinds and returns ctx.Err() within a handful of
// Dijkstra runs.
func Optimal(ctx context.Context, inst model.Instance, opts OptimalOptions) (*Result, error) {
	p, ok := inst.(*model.Problem)
	if !ok {
		return nil, unsupported("optimal", inst)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	// The delta funnel holds the concrete IncrementalEvaluator, whose
	// floor bound the search calls directly.
	ev, err := newDeltaEvaluator(p)
	if err != nil {
		return nil, err
	}

	incumbent := opts.Incumbent
	if incumbent == nil {
		incumbent, err = IDB(ctx, p, IDBOptions{Delta: 1})
		if err != nil {
			return nil, fmt.Errorf("solver: optimal could not seed incumbent: %w", err)
		}
	}
	bestCost := incumbent.Cost
	bestDeploy := incumbent.Deploy.Clone()

	// Branch order: decreasing workload in the incumbent's tree.
	sizes := incumbent.Tree.SubtreeSizes(p)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if sizes[order[a]] != sizes[order[b]] {
			return sizes[order[a]] > sizes[order[b]]
		}
		return order[a] < order[b]
	})

	var (
		evaluations int64
		probes      int64
		counts      = make([]int, n) // decided counts in *post* index space, 0 if undecided
		boundBuf    = make([]int, n)
		// floors[d] holds the exact distances of the depth-d node being
		// expanded, saved once when it expands; its children's bound
		// vectors are componentwise below it.
		floors = make([]model.Floor, n)
	)
	// evaluate prices the bound vector m of the node at depth, whose
	// undecided posts share budget nodes, at most maxEach each, against
	// the prune threshold bestCost-costSlack. A pruned probe proves no
	// completion of the node would beat the incumbent and produces no
	// float. Below the root, before any move is applied, the relay bound
	// may reject the whole node where it still has a choice to make
	// (model.IncrementalEvaluator.PruneByRelayBound), and the parent's
	// floor its bound vector (model.IncrementalEvaluator.PruneByFloor);
	// otherwise the bounded evaluator may abandon it mid-settle
	// (model.IncrementalEvaluator.CostDeltaBounded). Pruned probes are not
	// counted in Evaluations, so MaxEvaluations budgets *completed*
	// evaluations, matching the reported counter. Cancellation and the
	// budget are checked on the probe cadence, pruned probes included, so
	// long pruned streaks cannot stall either.
	evaluate := func(m []int, depth, budget, maxEach int) (float64, bool, error) {
		probes++
		if opts.MaxEvaluations > 0 && evaluations >= opts.MaxEvaluations {
			return 0, false, ErrSearchBudget
		}
		if probes%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return 0, false, err
			}
		}
		limit := bestCost - costSlack
		if depth > 0 {
			if remaining := n - depth; remaining > 1 && maxEach > 1 {
				doomed, err := ev.ev.PruneByRelayBound(counts, maxEach, budget, limit)
				if err != nil || doomed {
					return 0, doomed, err
				}
			}
			doomed, err := ev.ev.PruneByFloor(&floors[depth-1], m, limit)
			if err != nil || doomed {
				return 0, doomed, err
			}
		}
		// Sibling search nodes share most of their vector, so the delta
		// funnel reprices only the posts the branch actually changed.
		cost, pruned, err := ev.evalBounded(m, limit)
		if err != nil {
			return 0, false, err
		}
		if !pruned {
			evaluations++
		}
		return cost, pruned, nil
	}

	// dfs assigns order[depth..]; budget nodes remain for them. Every
	// node, the root included, first prices its admissible bound: each
	// undecided post gets the most it could still receive (others at
	// their minimum of 1).
	var dfs func(depth, budget int) error
	dfs = func(depth, budget int) error {
		remaining := n - depth
		maxEach := budget - (remaining - 1)
		copy(boundBuf, counts)
		for _, i := range order[depth:] {
			boundBuf[i] = maxEach
		}
		lb, pruned, err := evaluate(boundBuf, depth, budget, maxEach)
		if err != nil {
			return err
		}
		if pruned || lb >= bestCost-costSlack {
			return nil
		}
		if maxEach == 1 || remaining == 1 {
			// The bound vector IS this subtree's only completion
			// (budget == remaining forces every undecided post to 1;
			// one undecided post takes the whole budget), so the
			// non-pruned subtree holds exactly one leaf whose cost is
			// the float just computed. Descending would re-evaluate
			// that same vector at every chain node and at the leaf —
			// all empty-diff probes returning bit-identical floats,
			// with the incumbent unchanged in between (only leaves
			// update it) — before accepting it through the improve
			// test, which is the exact complement of the prune test
			// above on the same float. Fold the chain into the bound
			// evaluation and accept directly.
			bestCost = lb
			copy(bestDeploy, boundBuf)
			return nil
		}
		// The probe above left this bound vector committed. Every child
		// lowers the branched post to m and the undecided posts to
		// maxEach-m+1, so these exact distances floor all of them.
		if err := ev.ev.SaveFloor(&floors[depth]); err != nil {
			return err
		}
		post := order[depth]
		// Larger counts first: the optimum concentrates nodes on
		// high-workload posts, which this order reaches early.
		for m := maxEach; m >= 1; m-- {
			counts[post] = m
			if err := dfs(depth+1, budget-m); err != nil {
				counts[post] = 0
				return err
			}
		}
		counts[post] = 0
		return nil
	}
	err = dfs(0, p.Nodes)
	if tr, ok := ctx.Value(optimalTraceKey{}).(*optimalTrace); ok {
		tr.fill(probes, ev.ev)
	}
	if err != nil {
		return nil, err
	}

	parents, _, err := ev.ev.BestParents(bestDeploy)
	if err != nil {
		return nil, err
	}
	tree, err := model.NewTreeFromParents(p, parents)
	if err != nil {
		return nil, err
	}
	res, err := finalize(p, bestDeploy, tree)
	if err != nil {
		return nil, err
	}
	res.Evaluations = evaluations
	return res, nil
}

// NaiveExact exhaustively enumerates every deployment of M nodes over N
// posts (the paper's C(M-1, N-1) search) and returns the global optimum.
// It exists as a correctness oracle for Optimal on tiny instances; its
// cost explodes combinatorially.
func NaiveExact(p *model.Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.Dims()
	ev, err := newDeltaEvaluator(p)
	if err != nil {
		return nil, err
	}
	var (
		bestCost    = -1.0
		bestDeploy  model.Deployment
		evaluations int64
		evalFailure error
	)
	loopErr := deploy.ForEachDeployment(n, p.Nodes, func(m []int) bool {
		// Successive compositions differ in a couple of entries, so the
		// delta funnel turns the exhaustive sweep into cheap repairs.
		cost, err := ev.eval(m)
		evaluations++
		if err != nil {
			evalFailure = err
			return false
		}
		if bestDeploy == nil || cost < bestCost {
			bestCost = cost
			bestDeploy = append(bestDeploy[:0], m...)
		}
		return true
	})
	if loopErr != nil {
		return nil, loopErr
	}
	if evalFailure != nil {
		return nil, evalFailure
	}
	if bestDeploy == nil {
		return nil, errors.New("solver: exhaustive search found no deployment")
	}
	parents, _, err := ev.ev.BestParents(bestDeploy)
	if err != nil {
		return nil, err
	}
	tree, err := model.NewTreeFromParents(p, parents)
	if err != nil {
		return nil, err
	}
	res, err := finalize(p, bestDeploy, tree)
	if err != nil {
		return nil, err
	}
	res.Evaluations = evaluations
	return res, nil
}
