package model

import (
	"math"
	"testing"
)

func TestReportRatesValidation(t *testing.T) {
	p := lineProblem(t, 3, 6)
	p.ReportRates = []float64{1, 2} // wrong length
	if err := p.Validate(); err == nil {
		t.Error("wrong-length rates accepted")
	}
	p.ReportRates = []float64{1, -1, 1}
	if err := p.Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	p.ReportRates = []float64{0, 0, 0}
	if err := p.Validate(); err == nil {
		t.Error("all-zero rates accepted")
	}
	p.ReportRates = []float64{2, 0, 0.5}
	if err := p.Validate(); err != nil {
		t.Errorf("valid heterogeneous rates rejected: %v", err)
	}
}

func TestRateHelpers(t *testing.T) {
	p := lineProblem(t, 3, 6)
	if !p.UniformRates() || p.Rate(1) != 1 || p.TotalRate() != 3 {
		t.Errorf("nil rates should behave uniformly: rate=%v total=%v", p.Rate(1), p.TotalRate())
	}
	p.ReportRates = []float64{2, 0, 0.5}
	if p.UniformRates() {
		t.Error("heterogeneous rates reported as uniform")
	}
	if p.Rate(0) != 2 || p.Rate(1) != 0 {
		t.Errorf("Rate wrong: %v %v", p.Rate(0), p.Rate(1))
	}
	if math.Abs(p.TotalRate()-2.5) > 1e-12 {
		t.Errorf("TotalRate = %v", p.TotalRate())
	}
	p.ReportRates = []float64{1, 1, 1}
	if !p.UniformRates() {
		t.Error("explicit all-ones rates should be uniform")
	}
}

func TestSubtreeLoadsWeighted(t *testing.T) {
	p := lineProblem(t, 3, 6)
	p.ReportRates = []float64{0.5, 2, 0}               // post 2 is a pure relay source-wise
	tree, err := NewTreeFromParents(p, []int{3, 0, 1}) // chain 2->1->0->BS
	if err != nil {
		t.Fatal(err)
	}
	loads := tree.SubtreeLoads(p)
	for i, want := range []float64{2.5, 2, 0} {
		if math.Abs(loads[i]-want) > 1e-12 {
			t.Errorf("load[%d] = %v, want %v", i, loads[i], want)
		}
	}
	// With uniform rates, loads equal subtree sizes.
	p.ReportRates = nil
	loads = tree.SubtreeLoads(p)
	sizes := tree.SubtreeSizes(p)
	for i := range loads {
		if loads[i] != float64(sizes[i]) {
			t.Errorf("uniform loads[%d] = %v, sizes = %d", i, loads[i], sizes[i])
		}
	}
}

func TestWeightedEvaluateHandComputed(t *testing.T) {
	p := lineProblem(t, 2, 3)
	p.ReportRates = []float64{1, 3} // the far post reports 3x
	tree, err := NewTreeFromParents(p, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	e2 := 50 + 1.3e-6*math.Pow(50, 4)
	// loads: post0 = 4, post1 = 3.
	// E_0 = 4*e2 + 3*50 (receives post 1's three bits), E_1 = 3*e2.
	want := (4*e2+3*50)/2 + 3*e2/1
	got, err := Evaluate(p, Deployment{2, 1}, tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("weighted Evaluate = %v, want %v", got, want)
	}
	// Evaluator agrees.
	ev, err := NewCostEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	minCost, err := ev.MinCost(Deployment{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if minCost > got+1e-9 {
		t.Errorf("MinCost %v exceeds a concrete tree's cost %v", minCost, got)
	}
}

// TestWeightedBestTreeRoutesAroundLoad: heavy traffic should prefer the
// high-efficiency (many-node) relay under weighted evaluation.
func TestWeightedBestTreeConsistency(t *testing.T) {
	p := lineProblem(t, 4, 12)
	p.ReportRates = []float64{1, 5, 1, 2}
	deploy := Deployment{5, 3, 2, 2}
	tree, cost, err := BestTreeFor(p, deploy)
	if err != nil {
		t.Fatal(err)
	}
	evaluated, err := Evaluate(p, deploy, tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-evaluated) > 1e-9 {
		t.Errorf("weighted BestTreeFor %v != Evaluate %v", cost, evaluated)
	}
}
