// Package wrsn is a library for designing wireless-rechargeable sensor
// networks: it jointly optimises sensor-node deployment (how many nodes
// to co-locate at each post) and report routing (each post's parent and
// transmission power level) so as to minimise the total wireless
// recharging cost of keeping the network alive forever.
//
// It is a from-scratch reproduction of "How Wireless Power Charging
// Technology Affects Sensor Network Deployment and Routing" (Tong, Li,
// Wang, Zhang — ICDCS 2010), including:
//
//   - the first-order radio energy model with discrete power levels and
//     the multi-node wireless-charging efficiency model (eta, k(m));
//   - the RFH heuristic (minimum-energy fat tree -> workload-concentrated
//     trim -> opportunistic sibling merge -> Lagrange deployment), basic
//     and iterative;
//   - the IDB heuristic (incremental deployment; candidate placements
//     are priced by delta-repairing the round's shortest-path solution);
//   - exact solvers (branch-and-bound and exhaustive) for small networks;
//   - the NP-completeness reduction from 3-CNF-SAT as executable code
//     (wrsn/internal/npc, surfaced by cmd/wrsn-sat);
//   - a round-based network + mobile-charger simulator closing the loop
//     between the analytic objective and an actually-running network;
//   - an experiment harness regenerating every figure of the paper's
//     evaluation (see EXPERIMENTS.md).
//
// Beyond the paper, the optimization core is problem-agnostic: solvers
// are written against the Instance seam (an integer solution vector,
// per-dimension bounds, and a move-based Evaluator), and the repo ships
// a second problem family behind it — static RF charger placement
// (PlacementInstance), where candidate sites with coverage radii must
// meet per-post duty-cycle power demands at minimum installed cost. The
// same IDB, local-search and annealing loops that produce the paper's
// figures solve it unchanged; RFH and the exact solver are the
// documented deployment-only exceptions.
//
// # Quick start
//
//	field := wrsn.Square(500)
//	rng := rand.New(rand.NewSource(1))
//	p := &wrsn.Problem{
//		Posts:    field.RandomPoints(rng, 100),
//		BS:       field.Corner(),
//		Nodes:    600,
//		Energy:   wrsn.DefaultEnergyModel(),
//		Charging: wrsn.DefaultChargingModel(),
//	}
//	res, err := wrsn.SolveIterativeRFH(p)
//	// res.Deploy[i] = nodes at post i; res.Tree.Parent[i] = next hop;
//	// res.Cost = charger nJ per one-bit-per-post reporting round.
//
// Costs are in nanojoules of charger energy per reporting round in which
// every post delivers one bit to the base station; divide by 1000 for the
// paper's µJ axes.
package wrsn

import (
	"context"
	"math/rand"

	"wrsn/internal/charging"
	"wrsn/internal/deploy"
	"wrsn/internal/energy"
	"wrsn/internal/experiments"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/placement"
	"wrsn/internal/solver"
)

// Core model types.
type (
	// Problem is one instance of the joint deployment-and-routing
	// problem: post locations, base station, node budget and the energy
	// and charging models.
	Problem = model.Problem
	// Deployment assigns >= 1 nodes to every post.
	Deployment = model.Deployment
	// Tree is a routing arborescence toward the base station.
	Tree = model.Tree
	// Solution is a deployment plus tree with its evaluated cost.
	Solution = model.Solution
	// Result is a solver outcome (Solution plus solver diagnostics).
	Result = solver.Result

	// Point is a location in the field, in meters.
	Point = geom.Point
	// Field is a rectangular deployment area.
	Field = geom.Field

	// EnergyModel is the first-order radio model with discrete levels.
	EnergyModel = energy.Model
	// ChargingModel is the wireless charging efficiency model.
	ChargingModel = charging.Model

	// RFHOptions configures SolveRFH.
	RFHOptions = solver.RFHOptions
	// OptimalOptions configures SolveOptimal.
	OptimalOptions = solver.OptimalOptions

	// Report is a diagnostic digest of a solution (BuildReport).
	Report = model.Report

	// ExperimentOptions scales the paper-reproduction experiments.
	ExperimentOptions = experiments.Options
	// Figure is a reproduced paper figure (X axis plus labelled series).
	Figure = experiments.Figure

	// Move adjusts one post's node count by a (possibly negative) delta —
	// the unit of the delta-aware evaluation protocol.
	Move = model.Move
	// Evaluator is the move-based evaluation protocol the solvers' hot
	// loops run on: Cost / CostDelta / Commit / Revert, plus the probe
	// slot calls (EnableProbeCache / CostDeltaCached / CachedCostBounded
	// / CommitCached) that let IDB and local search re-price and promote
	// unchanged candidates.
	Evaluator = model.Evaluator
	// IncrementalEvaluator prices CostDelta probes by repairing the last
	// committed deployment's shortest-path solution instead of
	// recomputing it — the production Evaluator implementation.
	IncrementalEvaluator = model.IncrementalEvaluator

	// Instance is the problem-agnostic seam the solver hot loops are
	// written against: an integer solution vector with per-dimension
	// bounds and a move-based Evaluator. *Problem implements it for the
	// paper's deployment problem; *PlacementInstance for RF charger
	// placement.
	Instance = model.Instance
	// PlacementInstance is the static RF charger-placement problem:
	// candidate sites with coverage radii meeting per-post duty-cycle
	// power demands at minimum installed cost plus shortfall penalty.
	PlacementInstance = placement.Instance
	// PlacementSite is one candidate charger site (position, per-charger
	// cost, received power, coverage radius).
	PlacementSite = placement.Site
	// PlacementSiteSpec templates PlacementFromProblem's candidate grid.
	PlacementSiteSpec = placement.SiteSpec
)

// Square returns a side x side deployment field with the base station
// corner at the origin.
func Square(side float64) Field { return geom.Square(side) }

// DefaultEnergyModel returns the paper's radio constants: alpha = 50
// nJ/bit, beta = 0.0013 pJ/bit/m^4, gamma = 4, ranges {25, 50, 75} m.
func DefaultEnergyModel() EnergyModel { return energy.Default() }

// EnergyModelWithLevels returns the paper's radio model with k uniform
// 25m-step power levels (the Fig. 10 sweep).
func EnergyModelWithLevels(k int) (EnergyModel, error) { return energy.WithLevels(k) }

// DefaultChargingModel returns eta = 1 with the paper's linear gain
// k(m) = m. Every reported cost scales by 1/eta, so eta = 1 reports costs
// in consumed-energy units.
func DefaultChargingModel() ChargingModel { return charging.Default() }

// Evaluate computes the total recharging cost of (deploy, tree) on p:
// the charger energy compensating one bit reported by every post.
func Evaluate(p *Problem, deploy Deployment, tree Tree) (float64, error) {
	return model.Evaluate(p, deploy, tree)
}

// Solve picks the strongest solver the instance's size affords: exact
// branch-and-bound for small networks, IDB for mid-size, iterative RFH
// (locally polished) for large ones.
func Solve(p *Problem) (*Result, error) { return solver.Auto(context.Background(), p) }

// SolveRFH runs the Routing-First Heuristic with explicit options.
func SolveRFH(p *Problem, opts RFHOptions) (*Result, error) {
	return solver.RFH(context.Background(), p, opts)
}

// SolveBasicRFH runs a single RFH round (the paper's basic algorithm).
func SolveBasicRFH(p *Problem) (*Result, error) {
	return solver.RFH(context.Background(), p, RFHOptions{Iterations: 1})
}

// SolveIterativeRFH runs RFH with the paper's default seven iterations —
// the recommended solver for large networks.
func SolveIterativeRFH(p *Problem) (*Result, error) {
	return solver.RFH(context.Background(), p, RFHOptions{Iterations: solver.DefaultRFHIterations})
}

// SolveIDB runs the Incremental Deployment-Based heuristic with the given
// per-round increment delta (the paper compares with delta = 1). Slower
// than RFH but typically a few percent cheaper.
func SolveIDB(p *Problem, delta int) (*Result, error) {
	return solver.IDB(context.Background(), p, solver.IDBOptions{Delta: delta})
}

// SolveOptimal computes the exact optimum by branch-and-bound; practical
// for small instances only (roughly N <= 12, M <= 40).
func SolveOptimal(p *Problem, opts OptimalOptions) (*Result, error) {
	return solver.Optimal(context.Background(), p, opts)
}

// BestTreeFor returns the cheapest routing tree for a fixed deployment
// (one Dijkstra under recharging-cost weights) and its total cost.
func BestTreeFor(p *Problem, deploy Deployment) (Tree, float64, error) {
	return model.BestTreeFor(p, deploy)
}

// NewIncrementalEvaluator builds a delta-aware evaluator for p, for
// callers implementing their own deployment searches: establish a base
// with Cost, then price single-move perturbations with CostDelta and
// Commit/Revert them. See the Evaluator interface for the protocol.
func NewIncrementalEvaluator(p *Problem) (*IncrementalEvaluator, error) {
	return model.NewIncrementalEvaluator(p)
}

// BuildReport computes a diagnostic digest of a solution: depth, node
// concentration (Gini), cost concentration and the bottleneck post.
func BuildReport(p *Problem, deploy Deployment, tree Tree) (*Report, error) {
	return model.BuildReport(p, deploy, tree)
}

// UniformDeployment spreads m nodes over n posts as evenly as possible —
// the charging-oblivious deployment baseline.
func UniformDeployment(n, m int) (Deployment, error) {
	return model.UniformDeployment(n, m)
}

// MinEnergyTree returns the charging-oblivious routing baseline: minimum
// network-energy paths to the base station, ignoring deployment and
// charging efficiency.
func MinEnergyTree(p *Problem) (Tree, error) { return model.MinEnergyTree(p) }

// MinSpanningTree returns the classic energy-MST routing baseline
// (Prim over transmit energies, oriented toward the base station).
func MinSpanningTree(p *Problem) (Tree, error) { return model.MinSpanningTree(p) }

// LocalSearchOptions configures SolveLocalSearch.
type LocalSearchOptions = solver.LocalSearchOptions

// AnnealOptions configures SolveAnneal.
type AnnealOptions = solver.AnnealOptions

// SolveAnneal refines a seed solution (default: iterative RFH) by
// simulated annealing over single-node moves — unlike local search it can
// escape 1-move-optimal basins, and it never returns worse than its seed.
func SolveAnneal(p *Problem, opts AnnealOptions) (*Result, error) {
	return solver.Anneal(context.Background(), p, opts)
}

// GenSpec parameterises GenerateProblem.
type GenSpec = model.GenSpec

// GenerateProblem draws connected random instances: the canonical
// instance source for tests, examples and tools. Layouts: uniform
// (default), clustered, grid.
func GenerateProblem(rng *rand.Rand, spec GenSpec) (*Problem, error) {
	return model.GenerateProblem(rng, spec)
}

// ProvisionSpares inflates a planned deployment for fault tolerance: with
// each node independently surviving the mission with probability
// `survive`, the returned counts keep every post at its planned strength
// with the given confidence. The second result is the total node count to
// procure (it exceeds the optimiser's M).
func ProvisionSpares(planned Deployment, survive, confidence float64) (Deployment, int, error) {
	inflated, total, err := deploy.ProvisionSpares(planned, survive, confidence)
	if err != nil {
		return nil, 0, err
	}
	return Deployment(inflated), total, nil
}

// SolveLocalSearch refines a seed solution (default: iterative RFH) by
// exact-evaluated single-node moves until 1-move-optimal — an extension
// beyond the paper that typically closes the RFH-to-optimal gap.
func SolveLocalSearch(p *Problem, opts LocalSearchOptions) (*Result, error) {
	return solver.LocalSearch(context.Background(), p, opts)
}

// SolveInstance runs the strongest generic solver pipeline (IDB seeding
// local search) on any problem instance — the entry point for problem
// families beyond deployment. For deployment instances it matches Solve;
// for placement instances the result's Vector holds chargers per site.
func SolveInstance(inst Instance) (*Result, error) {
	return solver.Auto(context.Background(), inst)
}

// SolveGreedyPlacement runs the placement family's native construction
// heuristic: install the best-paying charger until none pays for itself.
// Fast and deterministic; SolveInstance typically improves on it.
func SolveGreedyPlacement(inst *PlacementInstance) (*Result, error) {
	return solver.Greedy(context.Background(), inst)
}

// PlacementFromProblem derives a charger-placement instance from a
// deployment problem: candidate sites on a spec.Grid-square lattice over
// the posts' bounding box, per-post power demands of perRate mW per unit
// report rate — the bridge tying the two problem families to the same
// traffic profile.
func PlacementFromProblem(p *Problem, perRate float64, spec PlacementSiteSpec) (*PlacementInstance, error) {
	return placement.FromProblem(p, perRate, spec)
}
