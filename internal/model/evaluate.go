package model

import (
	"fmt"
)

// Solution bundles a deployment and routing tree with their evaluated
// total recharging cost (nJ of charger energy per one-bit-per-post
// reporting round).
type Solution struct {
	Deploy Deployment `json:"deploy"`
	Tree   Tree       `json:"tree"`
	Cost   float64    `json:"cost_nj"`
}

// Evaluate computes the paper's objective: the total energy the charger
// must disseminate to compensate every post's consumption for one bit
// reported by each post to the base station,
//
//	C = sum_i E_i / (eta * k(m_i)).
//
// It validates both the deployment and the tree against p.
func Evaluate(p *Problem, deploy Deployment, tree Tree) (float64, error) {
	if err := deploy.Validate(p); err != nil {
		return 0, err
	}
	if err := tree.Validate(p); err != nil {
		return 0, err
	}
	return evaluateUnchecked(p, deploy, tree)
}

// evaluateUnchecked is Evaluate without input validation, for solver hot
// paths that construct deployments and trees known to be valid.
func evaluateUnchecked(p *Problem, deploy Deployment, tree Tree) (float64, error) {
	energies := tree.PostEnergies(p)
	var total float64
	for i, e := range energies {
		cost, err := p.Charging.RechargeCost(e, deploy[i])
		if err != nil {
			return 0, fmt.Errorf("model: post %d: %w", i, err)
		}
		total += cost
	}
	return total, nil
}

// EvaluateSolution evaluates and stamps sol.Cost in place.
func EvaluateSolution(p *Problem, sol *Solution) error {
	cost, err := Evaluate(p, sol.Deploy, sol.Tree)
	if err != nil {
		return err
	}
	sol.Cost = cost
	return nil
}

// BestTreeFor computes, for a fixed deployment, the minimum total
// recharging cost over all routing trees, together with a tree achieving
// it. Because per-bit recharging cost is additive along a path under
// RechargeCostWeights, the optimum is a shortest-path tree: one Dijkstra
// run. This one-shot form suits single queries; search loops use the
// Evaluator protocol instead (the solvers probe candidates as CostDelta
// moves against an IncrementalEvaluator's committed deployment).
func BestTreeFor(p *Problem, deploy Deployment) (Tree, float64, error) {
	ev, err := NewCostEvaluator(p)
	if err != nil {
		return Tree{}, 0, err
	}
	parents, total, err := ev.BestParents(deploy)
	if err != nil {
		return Tree{}, 0, err
	}
	tree, err := NewTreeFromParents(p, parents)
	if err != nil {
		return Tree{}, 0, err
	}
	return tree, total, nil
}
