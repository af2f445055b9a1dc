package wrsn

import (
	"math"
	"math/rand"
	"testing"
)

// exampleProblem builds the connected instance used across facade tests.
func exampleProblem(t testing.TB) *Problem {
	t.Helper()
	field := Square(250)
	rng := rand.New(rand.NewSource(21))
	for attempt := 0; attempt < 500; attempt++ {
		p := &Problem{
			Posts:    field.RandomPoints(rng, 20),
			BS:       field.Corner(),
			Nodes:    80,
			Energy:   DefaultEnergyModel(),
			Charging: DefaultChargingModel(),
		}
		if p.Validate() == nil {
			return p
		}
	}
	t.Fatal("no connected instance")
	return nil
}

func TestFacadeEndToEnd(t *testing.T) {
	p := exampleProblem(t)

	rfh, err := SolveIterativeRFH(p)
	if err != nil {
		t.Fatalf("SolveIterativeRFH: %v", err)
	}
	idb, err := SolveIDB(p, 1)
	if err != nil {
		t.Fatalf("SolveIDB: %v", err)
	}
	basic, err := SolveBasicRFH(p)
	if err != nil {
		t.Fatalf("SolveBasicRFH: %v", err)
	}
	if idb.Cost > rfh.Cost+1e-6 || rfh.Cost > basic.Cost+1e-6 {
		t.Errorf("expected IDB <= iterative RFH <= basic RFH, got %.4f / %.4f / %.4f",
			idb.Cost, rfh.Cost, basic.Cost)
	}

	// The charging-aware designs beat the oblivious baseline.
	uniform, err := UniformDeployment(p.N(), p.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	baselineTree, err := MinEnergyTree(p)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Evaluate(p, uniform, baselineTree)
	if err != nil {
		t.Fatal(err)
	}
	if rfh.Cost >= baseline {
		t.Errorf("charging-aware RFH (%.4f) did not beat the oblivious baseline (%.4f)", rfh.Cost, baseline)
	}

	// BestTreeFor agrees with Evaluate on its own output.
	tree, cost, err := BestTreeFor(p, idb.Deploy)
	if err != nil {
		t.Fatal(err)
	}
	evaluated, err := Evaluate(p, idb.Deploy, tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-evaluated) > 1e-6 {
		t.Errorf("BestTreeFor cost %.6f != Evaluate %.6f", cost, evaluated)
	}
}

func TestFacadeOptimalSmall(t *testing.T) {
	field := Square(150)
	rng := rand.New(rand.NewSource(5))
	var p *Problem
	for {
		p = &Problem{
			Posts:    field.RandomPoints(rng, 6),
			BS:       field.Corner(),
			Nodes:    14,
			Energy:   DefaultEnergyModel(),
			Charging: DefaultChargingModel(),
		}
		if p.Validate() == nil {
			break
		}
	}
	opt, err := SolveOptimal(p, OptimalOptions{})
	if err != nil {
		t.Fatalf("SolveOptimal: %v", err)
	}
	idb, err := SolveIDB(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if idb.Cost < opt.Cost-1e-6 {
		t.Errorf("IDB %.6f beat the optimum %.6f", idb.Cost, opt.Cost)
	}
}

func TestEnergyModelWithLevels(t *testing.T) {
	em, err := EnergyModelWithLevels(6)
	if err != nil {
		t.Fatal(err)
	}
	if em.Levels() != 6 || em.MaxRange() != 150 {
		t.Errorf("levels=%d maxRange=%v", em.Levels(), em.MaxRange())
	}
	if _, err := EnergyModelWithLevels(0); err == nil {
		t.Error("zero levels accepted")
	}
}

func TestFacadeProvisionSpares(t *testing.T) {
	planned := Deployment{1, 4, 8}
	inflated, total, err := ProvisionSpares(planned, 0.9, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if total <= planned.Sum() {
		t.Errorf("no spares added: %d vs %d", total, planned.Sum())
	}
	for i := range planned {
		if inflated[i] < planned[i] {
			t.Errorf("post %d shrank", i)
		}
	}
	if _, _, err := ProvisionSpares(planned, 0, 0.99); err == nil {
		t.Error("invalid survival accepted")
	}
}

func TestFacadeBaselinesAndReport(t *testing.T) {
	p := exampleProblem(t)
	mst, err := MinSpanningTree(p)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := UniformDeployment(p.N(), p.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := Evaluate(p, uniform, mst)
	if err != nil {
		t.Fatalf("MST baseline does not evaluate: %v", err)
	}
	report, err := BuildReport(p, uniform, mst)
	if err != nil {
		t.Fatal(err)
	}
	if report.Cost != cost {
		t.Errorf("report cost %v != Evaluate %v", report.Cost, cost)
	}
	if report.DeploymentGini > 0.05 {
		t.Errorf("uniform deployment should have near-zero Gini, got %v", report.DeploymentGini)
	}
}

func TestFacadeSolveAndAnneal(t *testing.T) {
	p := exampleProblem(t)
	auto, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := SolveAnneal(p, AnnealOptions{Seed: 2, Iterations: 1500})
	if err != nil {
		t.Fatal(err)
	}
	idb, err := SolveIDB(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"auto": auto, "anneal": ann, "idb": idb} {
		if _, err := Evaluate(p, res.Deploy, res.Tree); err != nil {
			t.Errorf("%s produced invalid solution: %v", name, err)
		}
	}
	if idb.Cost > auto.Cost+1e-6 {
		t.Errorf("auto (%v) should not lose to IDB (%v) at this scale", auto.Cost, idb.Cost)
	}
}
