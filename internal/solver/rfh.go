package solver

import (
	"context"
	"fmt"
	"math"

	"wrsn/internal/deploy"
	"wrsn/internal/graph"
	"wrsn/internal/model"
	"wrsn/internal/routing"
)

// RFHOptions configures the Routing-First Heuristic.
type RFHOptions struct {
	// Iterations is the number of routing/deployment refinement rounds.
	// 1 runs the basic RFH; the paper's evaluation uses 7 (Fig. 6 shows
	// convergence within seven rounds). Values < 1 default to 1.
	Iterations int
	// DisableSiblingMerge skips Phase III (used by ablation benchmarks).
	DisableSiblingMerge bool
	// IncludeRxInPhase1 prices the receiver's alpha into the Phase-I
	// path weights of the *first* round. The paper's weight function is
	// transmit-only (w = alpha + beta*d^gamma); including reception
	// makes first-round paths reflect true network energy, usually a
	// wash after iteration but occasionally better on sparse fields.
	// An ablation knob; later rounds always use recharging-cost weights.
	IncludeRxInPhase1 bool
}

// DefaultRFHIterations is the iteration count the paper settles on after
// the Fig. 6 convergence study.
const DefaultRFHIterations = 7

// RFH runs the Routing-First Heuristic.
//
// Each round executes the paper's four phases: (I) all minimum-energy
// paths to the base station form the fat tree — priced by transmit energy
// on the first round and by recharging cost (using the previous round's
// deployment) on later rounds, which is exactly the iterative variant's
// refinement; (II) the fat tree is trimmed into a workload-concentrated
// routing tree; (III) sibling posts merge under cheaper-to-reach heads;
// (IV) nodes are allocated to posts by Lagrange multipliers with the
// paper's iterative rounding, proportional to sqrt of per-post energy.
//
// The returned solution is the best across rounds (per-round costs can
// oscillate slightly due to rounding; the paper observes the same), and
// Result.IterationCosts holds every round's cost for convergence studies.
//
// RFH is the one solver not written against the move-based
// model.Evaluator protocol: each round rebuilds its routing tree and
// reallocates every post's nodes at once, so successive evaluations share
// no base deployment for a delta probe to repair from. Its handful of
// whole-solution evaluations per round (model.Evaluate on explicit trees)
// are nowhere near the hot path the delta-aware solvers optimise. The
// per-round graph machinery is amortised instead: the communication
// graph is built once (model.CommGraph), re-priced in place each round,
// and the Dijkstra/trim state is recycled across rounds
// (graph.Router/routing.Trimmer). Result.Evaluations reports the total
// Dijkstra vertex settlements.
//
// RFH solves only the deployment problem and rejects every other kind
// with an UnsupportedError: it is the documented structural exception
// to the generic instance/evaluator seam — its four phases reason about
// routing trees, path weights and node allocation directly, none of
// which exist for other families. The context is checked at every
// round boundary, so a cancelled run returns ctx.Err() within one round.
func RFH(ctx context.Context, inst model.Instance, opts RFHOptions) (*Result, error) {
	p, ok := inst.(*model.Problem)
	if !ok {
		return nil, unsupported("rfh", inst)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	iterations := opts.Iterations
	if iterations < 1 {
		iterations = 1
	}

	// One-time graph machinery, reused every round: the communication
	// graph with cached hop energies, the Dijkstra router (heap, distance
	// vector and DAG recycled through Reset), and the Phase-II trimmer.
	cg, err := model.NewCommGraph(p)
	if err != nil {
		return nil, err
	}
	router := graph.NewRouter(cg.Graph())
	trimmer := routing.NewTrimmer(p.N())
	var trimmed routing.TrimResult

	mergeSpec := routing.MergeSpec{
		NPosts:          p.N(),
		Pos:             p.Point,
		TxEnergyBetween: cg.TxBetween,
	}

	var (
		cur      model.Deployment // deployment from the previous round; nil on round 1
		best     *Result
		bestCost = math.Inf(1)
		costs    = make([]float64, 0, iterations)
	)
	for round := 0; round < iterations; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wf := p.EnergyWeights()
		if opts.IncludeRxInPhase1 {
			wf = p.EnergyWithRxWeights()
		}
		if cur != nil {
			w, err := p.RechargeCostWeights(cur)
			if err != nil {
				return nil, err
			}
			wf = w
		}
		if err := cg.Reweight(wf); err != nil {
			return nil, err
		}
		dag, err := router.DAGTo(p.BSIndex(), model.DAGTolerance)
		if err != nil {
			return nil, err
		}
		if round == 0 {
			// Reachability depends only on the edge set, which reweighting
			// never changes — checking the first round covers all of them.
			for u := 0; u < p.N(); u++ {
				if !dag.Reachable(u) {
					return nil, fmt.Errorf("%w: post %d", model.ErrDisconnected, u)
				}
			}
		}
		if err := trimmer.Trim(dag, p.ReportRates, nil, &trimmed); err != nil {
			return nil, err
		}
		// Phase III is *opportunistic*: the merged tree concentrates
		// workload further but pays extra forwarding energy at the group
		// heads, which only pays off when redeployment can buy the heads
		// enough charging efficiency. Deploy on both candidates and keep
		// whichever is actually cheaper this round.
		candidates := [][]int{trimmed.Parent}
		if !opts.DisableSiblingMerge {
			merged := append([]int(nil), trimmed.Parent...)
			stats, err := routing.MergeSiblings(mergeSpec, merged)
			if err != nil {
				return nil, err
			}
			if stats.Reparented > 0 {
				candidates = append(candidates, merged)
			}
		}
		roundCost := math.Inf(1)
		var (
			roundDeploy model.Deployment
			roundTree   model.Tree
		)
		for _, parents := range candidates {
			tree, err := model.NewTreeFromParents(p, parents)
			if err != nil {
				return nil, err
			}
			counts, err := deploy.Allocate(tree.PostEnergies(p), p.Nodes)
			if err != nil {
				return nil, err
			}
			cost, err := model.Evaluate(p, counts, tree)
			if err != nil {
				return nil, fmt.Errorf("solver: RFH round %d produced invalid solution: %w", round+1, err)
			}
			if cost < roundCost {
				roundCost, roundDeploy, roundTree = cost, counts, tree
			}
		}
		cur = roundDeploy
		costs = append(costs, roundCost)
		if roundCost < bestCost {
			bestCost = roundCost
			best = &Result{Solution: model.Solution{Deploy: cur.Clone(), Tree: roundTree, Cost: roundCost}}
		}
	}
	best.IterationCosts = costs
	best.Evaluations = router.Settled()
	return best, nil
}
