// Package solver implements move-based optimization over any
// model.Instance, plus the paper's deployment-specific algorithms. The
// search loops — IDB's incremental growth, local-search hill climbing,
// simulated annealing, and the exact branch-and-bound/exhaustive
// searches — run against the model.Instance/model.Evaluator seam and
// never touch deployment state, so they solve every registered problem
// family (the paper's joint deployment-and-routing problem, static RF
// charger placement) through the same hot loops.
//
// Every algorithm has exactly one entry point, context-aware and taking
// a model.Instance: RFH, IDB, LocalSearch, Anneal, Optimal, Auto and
// Greedy. Cancelling the context stops the solver at its next check.
// Where the deployment problem needs its own handling (an RFH seed, a
// routing tree read off the evaluator), the body checks for
// *model.Problem itself; there is no separate deployment entry point.
//
// For the deployment problem the package provides the paper's algorithms:
//
//   - RFH, the Routing-First Heuristic (Section V-A): basic RFH with
//     Iterations 1, iterative RFH with DefaultRFHIterations. It is a
//     documented structural exception that reasons about routing trees
//     directly and therefore only solves *model.Problem (as is Heal,
//     the repair pass).
//   - IDB, the Incremental Deployment-Based heuristic (Section V-B).
//   - Optimal, a branch-and-bound exact solver for small instances, and
//     NaiveExact, the paper's C(M-1, N-1) exhaustive search, kept as a
//     test oracle. Their admissible bound assumes cost is monotone
//     non-increasing in every dimension — true for deployment, false in
//     general — so Optimal rejects other kinds with an UnsupportedError.
//
// Deployment solvers return a Result whose Solution carries a validated
// deployment, routing tree and evaluated total recharging cost; generic
// instance solvers return the solution vector and its cost re-priced by
// the instance's reference evaluator.
package solver

import (
	"errors"
	"fmt"
	"math"

	"wrsn/internal/model"
)

// Result is the outcome of one solver run.
type Result struct {
	model.Solution
	// Vector is the solution vector for non-deployment instances (nil
	// for deployment runs, whose vector is Solution.Deploy).
	Vector []int `json:"vector,omitempty"`
	// IterationCosts records the total recharging cost after each
	// iteration for iterative solvers (iterative RFH: one entry per
	// iteration; Fig. 6 plots exactly this series). Single-pass solvers
	// leave it nil.
	IterationCosts []float64
	// Evaluations counts the solver's unit of search work: candidate
	// deployments whose minimum-cost tree was evaluated (IDB, Optimal,
	// NaiveExact), or Dijkstra vertex settlements across the per-round
	// fat-tree rebuilds (RFH), so RFH-driven figures report comparable
	// perf-trajectory numbers instead of 0.
	Evaluations int64
}

// ErrUnsupportedInstance is the sentinel every UnsupportedError unwraps
// to: the solver structurally cannot solve the instance's problem
// family (not a transient failure).
var ErrUnsupportedInstance = errors.New("solver: instance kind not supported")

// UnsupportedError reports that a solver rejected an instance because of
// its problem family. It unwraps to ErrUnsupportedInstance so callers
// can detect clean rejection with errors.Is.
type UnsupportedError struct {
	// Solver is the rejecting algorithm's name.
	Solver string
	// Kind is the rejected instance's Kind().
	Kind string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("solver: %s does not support %q instances", e.Solver, e.Kind)
}

func (e *UnsupportedError) Unwrap() error { return ErrUnsupportedInstance }

// unsupported builds the typed rejection for solver name over inst.
func unsupported(name string, inst model.Instance) error {
	return &UnsupportedError{Solver: name, Kind: inst.Kind()}
}

// finalize validates sol against p, stamps its cost, and wraps it in a
// Result.
func finalize(p *model.Problem, deploy model.Deployment, tree model.Tree) (*Result, error) {
	cost, err := model.Evaluate(p, deploy, tree)
	if err != nil {
		return nil, fmt.Errorf("solver: produced invalid solution: %w", err)
	}
	return &Result{Solution: model.Solution{Deploy: deploy, Tree: tree, Cost: cost}}, nil
}

// parentsProvider is the evaluator capability the deployment results
// use to extract the repaired shortest-path tree without a final
// from-scratch solve (model.IncrementalEvaluator implements it).
type parentsProvider interface {
	BestParents(m []int) ([]int, float64, error)
}

// finishDeployment turns a search loop's final vector into a validated
// deployment Result: the routing tree is read off ev's repaired
// shortest-path state, then the solution is re-evaluated from scratch.
// This is the deployment-specific tail shared by every generic search —
// the one place the search solvers touch routing state.
func finishDeployment(p *model.Problem, ev model.Evaluator, cur []int, evaluations int64) (*Result, error) {
	bp, ok := ev.(parentsProvider)
	if !ok {
		return nil, fmt.Errorf("solver: deployment evaluator %T cannot report parents", ev)
	}
	parents, _, err := bp.BestParents(cur)
	if err != nil {
		return nil, err
	}
	tree, err := model.NewTreeFromParents(p, parents)
	if err != nil {
		return nil, err
	}
	res, err := finalize(p, model.Deployment(cur), tree)
	if err != nil {
		return nil, err
	}
	res.Evaluations = evaluations
	return res, nil
}

// finish assembles the Result for a search loop's final vector:
// finishDeployment for the deployment problem, finishInstance for every
// other kind.
func finish(inst model.Instance, ev model.Evaluator, cur []int, evaluations int64) (*Result, error) {
	if p, ok := inst.(*model.Problem); ok {
		return finishDeployment(p, ev, cur, evaluations)
	}
	return finishInstance(inst, cur, evaluations)
}

// finishInstance turns a search loop's final vector into a generic
// Result: the vector is validated against the instance and re-priced by
// a fresh reference evaluator, so a buggy incremental evaluator cannot
// silently misprice the returned solution.
func finishInstance(inst model.Instance, cur []int, evaluations int64) (*Result, error) {
	if err := inst.ValidateSolution(cur); err != nil {
		return nil, fmt.Errorf("solver: produced invalid solution: %w", err)
	}
	ref, err := inst.NewReferenceEvaluator()
	if err != nil {
		return nil, err
	}
	cost, err := ref.Cost(cur)
	if err != nil {
		return nil, err
	}
	vec := append([]int(nil), cur...)
	return &Result{
		Solution:    model.Solution{Cost: cost},
		Vector:      vec,
		Evaluations: evaluations,
	}, nil
}

// deltaEvaluator adapts the deployment evaluator to solvers that probe
// whole vectors (branch-and-bound bounds, exhaustive enumeration): each
// query is diffed against the previously evaluated vector and priced as
// a committed delta probe, so successive queries that share most of
// their entries — sibling search nodes, adjacent compositions — pay
// only for what changed. Both users solve only the deployment problem,
// so it holds the concrete IncrementalEvaluator.
type deltaEvaluator struct {
	ev    *model.IncrementalEvaluator
	prev  []int
	moves []model.Move
	have  bool
}

func newDeltaEvaluator(p *model.Problem) (*deltaEvaluator, error) {
	ev, err := model.NewIncrementalEvaluator(p)
	if err != nil {
		return nil, err
	}
	return &deltaEvaluator{ev: ev, prev: make([]int, p.N())}, nil
}

// eval prices m, committing it as the base for the next diff.
func (d *deltaEvaluator) eval(m []int) (float64, error) {
	cost, _, err := d.evalBounded(m, math.Inf(1))
	return cost, err
}

// evalBounded is eval with a prune threshold: when a probe proves its
// cost >= limit (IncrementalEvaluator.CostDeltaBounded) it is abandoned
// — pruned=true returns with the previous vector still committed, so
// the next diff is unaffected. The first, full evaluation never prunes.
func (d *deltaEvaluator) evalBounded(m []int, limit float64) (cost float64, pruned bool, err error) {
	if !d.have {
		cost, err = d.ev.Cost(m)
		if err != nil {
			return 0, false, err
		}
		copy(d.prev, m)
		d.have = true
		return cost, false, nil
	}
	d.moves = d.moves[:0]
	for i, mi := range m {
		if mi != d.prev[i] {
			d.moves = append(d.moves, model.Move{Post: i, Delta: mi - d.prev[i]})
		}
	}
	cost, pruned, err = d.ev.CostDeltaBounded(d.moves, limit)
	if err != nil || pruned {
		return 0, pruned, err
	}
	if err := d.ev.Commit(); err != nil {
		return 0, false, err
	}
	copy(d.prev, m)
	return cost, false, nil
}
