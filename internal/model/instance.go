package model

import (
	"context"
	"fmt"
	"strconv"
	"strings"
)

// Problem-family kinds known to the solver registry. An Instance reports
// its kind so registries and CLIs can describe which solvers accept which
// problem families without probing them.
const (
	// KindDeployment is the paper's joint deployment-and-routing problem
	// (*Problem).
	KindDeployment = "deployment"
	// KindPlacement is the static RF charger-placement problem
	// (internal/placement.Instance).
	KindPlacement = "placement"
)

// Instance is one optimization-problem instance expressed through the
// move-based evaluation protocol: a solution is an integer vector of
// Dims() per-dimension counts, bounded per dimension, optionally
// constrained to a fixed total, and priced by an Evaluator. It is the
// seam between problem families and the generic solver hot loops:
// everything IDB, local search, annealing and the exact searches need to
// run is here, with nothing deployment-specific.
//
// *Problem implements Instance for the paper's joint
// deployment-and-routing problem (dimension i = post i's node count);
// internal/placement.Instance implements it for static RF charger
// placement (dimension j = chargers at candidate site j).
type Instance interface {
	// Kind names the problem family (KindDeployment, KindPlacement, ...).
	Kind() string
	// Dims is the solution-vector length.
	Dims() int
	// LowerBound and UpperBound bound dimension i's count in any valid
	// solution (inclusive). Solvers move counts only inside these bounds.
	LowerBound(i int) int
	UpperBound(i int) int
	// FixedTotal returns (total, true) when every valid solution's counts
	// must sum to exactly total — the deployment problem's node budget.
	// (0, false) means the sum is free and solvers may add or remove
	// units (charger placement: any subset of sites is a solution).
	FixedTotal() (int, bool)
	// NewEvaluator returns the production (incremental) evaluator for
	// this instance; NewReferenceEvaluator returns the trivially correct
	// oracle implementation the production one is differentially tested
	// against. Both price identically.
	NewEvaluator() (Evaluator, error)
	NewReferenceEvaluator() (Evaluator, error)
	// ValidateSolution checks that m is a valid solution vector (length,
	// bounds, fixed total).
	ValidateSolution(m []int) error
	// EncodeSolution renders m compactly for artifacts and logs.
	EncodeSolution(m []int) string
	// Validate checks the instance's own structural invariants.
	Validate() error
}

// SeedHeuristic is an optional Instance capability: a problem-native
// construction heuristic producing an initial solution for the generic
// refinement solvers (local search, annealing) to polish, mirroring the
// role RFH plays for the deployment problem. The returned evaluation
// count feeds Result.Evaluations.
type SeedHeuristic interface {
	SeedSolution(ctx context.Context) (vec []int, evaluations int64, err error)
}

// EncodeCounts renders a count vector as "a,b,c,..." — the shared
// EncodeSolution implementation for count-vector problem families.
func EncodeCounts(m []int) string {
	var b strings.Builder
	for i, v := range m {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// Instance implementation for *Problem: the joint deployment-and-routing
// problem as a count vector of nodes per post, bounded below by one node
// everywhere and summing to the node budget M.

// Kind returns KindDeployment.
func (p *Problem) Kind() string { return KindDeployment }

// Dims returns the solution-vector length: one dimension per post.
func (p *Problem) Dims() int { return p.N() }

// LowerBound returns 1: every post keeps at least one node.
func (p *Problem) LowerBound(int) int { return 1 }

// UpperBound returns the most nodes one post can hold: the budget minus
// one node for every other post.
func (p *Problem) UpperBound(int) int { return p.Nodes - (p.N() - 1) }

// FixedTotal returns the node budget M: deployments always sum to it.
func (p *Problem) FixedTotal() (int, bool) { return p.Nodes, true }

// NewEvaluator returns the production IncrementalEvaluator for p.
func (p *Problem) NewEvaluator() (Evaluator, error) { return NewIncrementalEvaluator(p) }

// NewReferenceEvaluator returns the stateless-oracle evaluator for p.
func (p *Problem) NewReferenceEvaluator() (Evaluator, error) { return NewReferenceEvaluator(p) }

// ValidateSolution checks m as a deployment of p.
func (p *Problem) ValidateSolution(m []int) error { return Deployment(m).Validate(p) }

// EncodeSolution renders a deployment as comma-separated node counts.
func (p *Problem) EncodeSolution(m []int) string { return EncodeCounts(m) }

// LowerBoundVector returns inst's per-dimension lower bounds as a vector
// — the base the incremental solvers grow from.
func LowerBoundVector(inst Instance) []int {
	m := make([]int, inst.Dims())
	for i := range m {
		m[i] = inst.LowerBound(i)
	}
	return m
}

// CheckInstanceBounds rejects structurally impossible bound
// configurations shared by all instance kinds; problem families call it
// from their Validate.
func CheckInstanceBounds(inst Instance) error {
	n := inst.Dims()
	if n <= 0 {
		return fmt.Errorf("model: instance has %d dimensions", n)
	}
	lbSum := 0
	for i := 0; i < n; i++ {
		lo, hi := inst.LowerBound(i), inst.UpperBound(i)
		if lo > hi {
			return fmt.Errorf("model: dimension %d has empty bound range [%d,%d]", i, lo, hi)
		}
		lbSum += lo
	}
	if total, fixed := inst.FixedTotal(); fixed && total < lbSum {
		return fmt.Errorf("model: fixed total %d below the lower-bound sum %d", total, lbSum)
	}
	return nil
}
