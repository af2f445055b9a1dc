package model

import (
	"math"
	"testing"
)

// TestRoundOverheadEvaluate: the overhead term adds exactly
// sum_i overhead/(k(m_i)*eta) to the cost and nothing else.
func TestRoundOverheadEvaluate(t *testing.T) {
	base := lineProblem(t, 3, 6)
	withOH := lineProblem(t, 3, 6)
	withOH.RoundOverhead = 100

	tree, err := NewTreeFromParents(base, []int{3, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	deploy := Deployment{3, 2, 1}
	c0, err := Evaluate(base, deploy, tree)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := Evaluate(withOH, deploy, tree)
	if err != nil {
		t.Fatal(err)
	}
	want := c0 + 100.0/3 + 100.0/2 + 100.0/1
	if math.Abs(c1-want) > 1e-9 {
		t.Errorf("overhead cost = %v, want %v", c1, want)
	}
}

// TestRoundOverheadEvaluatorConsistency: MinCost, BestParents and
// Evaluate must agree under overhead.
func TestRoundOverheadEvaluatorConsistency(t *testing.T) {
	p := lineProblem(t, 4, 8)
	p.RoundOverhead = 250
	ev, err := NewCostEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	deploy := Deployment{2, 2, 2, 2}
	minCost, err := ev.MinCost(deploy)
	if err != nil {
		t.Fatal(err)
	}
	tree, cost, err := BestTreeFor(p, deploy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(minCost-cost) > 1e-9 {
		t.Errorf("MinCost %v != BestTreeFor %v", minCost, cost)
	}
	evaluated, err := Evaluate(p, deploy, tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-evaluated) > 1e-9 {
		t.Errorf("BestTreeFor %v != Evaluate %v", cost, evaluated)
	}
}

// TestRoundOverheadDoesNotChangeRouting: the overhead is routing-
// independent, so the optimal tree is unchanged.
func TestRoundOverheadDoesNotChangeRouting(t *testing.T) {
	base := lineProblem(t, 4, 8)
	withOH := lineProblem(t, 4, 8)
	withOH.RoundOverhead = 1000
	deploy := Deployment{3, 2, 2, 1}
	t0, _, err := BestTreeFor(base, deploy)
	if err != nil {
		t.Fatal(err)
	}
	t1, _, err := BestTreeFor(withOH, deploy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t0.Parent {
		if t0.Parent[i] != t1.Parent[i] {
			t.Fatalf("overhead changed routing at post %d: %d vs %d", i, t0.Parent[i], t1.Parent[i])
		}
	}
}

func TestRoundOverheadValidation(t *testing.T) {
	p := lineProblem(t, 2, 2)
	p.RoundOverhead = -1
	if err := p.Validate(); err == nil {
		t.Error("negative overhead accepted")
	}
	p.RoundOverhead = math.Inf(1)
	if err := p.Validate(); err == nil {
		t.Error("infinite overhead accepted")
	}
}

// TestPostOverheadsOverrideScalar: per-post overheads replace the scalar
// and flow through Evaluate and the evaluator consistently.
func TestPostOverheadsOverrideScalar(t *testing.T) {
	p := lineProblem(t, 3, 6)
	p.RoundOverhead = 999 // must be ignored once PostOverheads is set
	p.PostOverheads = []float64{100, 0, 50}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid per-post overheads rejected: %v", err)
	}
	if p.Overhead(0) != 100 || p.Overhead(1) != 0 || p.Overhead(2) != 50 {
		t.Errorf("Overhead accessor wrong: %v %v %v", p.Overhead(0), p.Overhead(1), p.Overhead(2))
	}
	if !p.HasOverhead() {
		t.Error("HasOverhead false with positive per-post overheads")
	}

	tree, err := NewTreeFromParents(p, []int{3, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	deploy := Deployment{2, 2, 2}
	base := lineProblem(t, 3, 6)
	baseCost, err := Evaluate(base, deploy, tree)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Evaluate(p, deploy, tree)
	if err != nil {
		t.Fatal(err)
	}
	want := baseCost + 100.0/2 + 0 + 50.0/2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("per-post overhead cost %v, want %v", got, want)
	}
	ev, err := NewCostEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	minCost, err := ev.MinCost(deploy)
	if err != nil {
		t.Fatal(err)
	}
	treeB, costB, err := BestTreeFor(p, deploy)
	if err != nil {
		t.Fatal(err)
	}
	evaluated, err := Evaluate(p, deploy, treeB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(minCost-costB) > 1e-9 || math.Abs(costB-evaluated) > 1e-9 {
		t.Errorf("evaluator inconsistency: MinCost=%v BestTree=%v Evaluate=%v", minCost, costB, evaluated)
	}
}

func TestPostOverheadsValidation(t *testing.T) {
	p := lineProblem(t, 2, 2)
	p.PostOverheads = []float64{1}
	if err := p.Validate(); err == nil {
		t.Error("wrong-length post overheads accepted")
	}
	p.PostOverheads = []float64{1, -2}
	if err := p.Validate(); err == nil {
		t.Error("negative post overhead accepted")
	}
	p.PostOverheads = []float64{0, 0}
	if err := p.Validate(); err != nil {
		t.Errorf("all-zero per-post overheads rejected: %v", err)
	}
	if p.HasOverhead() {
		t.Error("HasOverhead true for all-zero overrides")
	}
}
