package solver

import (
	"context"
	"math"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/geom"
	"wrsn/internal/model"
)

// TestCostScalesInverseEtaEndToEnd: halving the single-node charging
// efficiency must exactly double every solver's cost while leaving the
// chosen deployment and routing unchanged — eta is a pure scale factor,
// which is why the paper never fixes it.
func TestCostScalesInverseEtaEndToEnd(t *testing.T) {
	base := randomProblem(t, 21, 250, 15, 50)
	halved := *base
	cm, err := charging.NewModel(0.5, charging.Linear())
	if err != nil {
		t.Fatal(err)
	}
	halved.Charging = cm

	for name, solve := range map[string]func(p *model.Problem) (*Result, error){
		"iterRFH": func(p *model.Problem) (*Result, error) {
			return RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
		},
		"IDB1": func(p *model.Problem) (*Result, error) {
			return IDB(context.Background(), p, IDBOptions{Delta: 1})
		},
	} {
		a, err := solve(base)
		if err != nil {
			t.Fatalf("%s base: %v", name, err)
		}
		b, err := solve(&halved)
		if err != nil {
			t.Fatalf("%s halved: %v", name, err)
		}
		if math.Abs(b.Cost-2*a.Cost) > 1e-6*a.Cost {
			t.Errorf("%s: eta=0.5 cost %.6f, want exactly 2x of %.6f", name, b.Cost, a.Cost)
		}
		for i := range a.Deploy {
			if a.Deploy[i] != b.Deploy[i] {
				t.Errorf("%s: eta rescaling changed the deployment at post %d", name, i)
				break
			}
		}
		for i := range a.Tree.Parent {
			if a.Tree.Parent[i] != b.Tree.Parent[i] {
				t.Errorf("%s: eta rescaling changed the routing at post %d", name, i)
				break
			}
		}
	}
}

// TestTranslationInvariance: shifting the whole field (posts and base
// station together) changes nothing — only relative geometry matters.
func TestTranslationInvariance(t *testing.T) {
	base := randomProblem(t, 22, 250, 12, 36)
	shifted := *base
	offset := geom.Point{X: 1234.5, Y: -987.25}
	shifted.Posts = make([]geom.Point, len(base.Posts))
	for i, pt := range base.Posts {
		shifted.Posts[i] = pt.Add(offset)
	}
	shifted.BS = base.BS.Add(offset)

	a, err := RFH(context.Background(), base, RFHOptions{Iterations: DefaultRFHIterations})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RFH(context.Background(), &shifted, RFHOptions{Iterations: DefaultRFHIterations})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Cost-b.Cost) > 1e-9*a.Cost {
		t.Errorf("translation changed the cost: %.9f vs %.9f", a.Cost, b.Cost)
	}
	for i := range a.Deploy {
		if a.Deploy[i] != b.Deploy[i] {
			t.Errorf("translation changed the deployment at post %d", i)
			break
		}
	}
}

// TestMirrorInvariance: reflecting the field across the diagonal (swap X
// and Y everywhere) preserves all pairwise distances, hence cost.
func TestMirrorInvariance(t *testing.T) {
	base := randomProblem(t, 23, 250, 12, 36)
	mirrored := *base
	mirrored.Posts = make([]geom.Point, len(base.Posts))
	for i, pt := range base.Posts {
		mirrored.Posts[i] = geom.Point{X: pt.Y, Y: pt.X}
	}
	mirrored.BS = geom.Point{X: base.BS.Y, Y: base.BS.X}

	a, err := IDB(context.Background(), base, IDBOptions{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := IDB(context.Background(), &mirrored, IDBOptions{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Cost-b.Cost) > 1e-9*a.Cost {
		t.Errorf("mirroring changed the cost: %.9f vs %.9f", a.Cost, b.Cost)
	}
}

// TestRateScalingLinearity: doubling every report rate must exactly
// double the cost of any fixed solution (the objective is linear in
// traffic) and not change the optimal routing for a fixed deployment.
func TestRateScalingLinearity(t *testing.T) {
	base := randomProblem(t, 24, 250, 12, 36)
	scaled := *base
	scaled.ReportRates = make([]float64, base.N())
	for i := range scaled.ReportRates {
		scaled.ReportRates[i] = 2
	}

	deploy, err := model.UniformDeployment(base.N(), base.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	_, costA, err := model.BestTreeFor(base, deploy)
	if err != nil {
		t.Fatal(err)
	}
	_, costB, err := model.BestTreeFor(&scaled, deploy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(costB-2*costA) > 1e-9*costA {
		t.Errorf("doubled rates: cost %.9f, want exactly 2x of %.9f", costB, costA)
	}
}

// TestSolversWithHeterogeneousRates: end-to-end run with non-uniform
// traffic — IDB must still dominate RFH, and both must respect the
// optimum on a small instance.
func TestSolversWithHeterogeneousRates(t *testing.T) {
	p := randomProblem(t, 25, 180, 8, 24)
	p.ReportRates = make([]float64, p.N())
	for i := range p.ReportRates {
		p.ReportRates[i] = 0.5 + float64(i%4) // 0.5, 1.5, 2.5, 3.5, ...
	}
	opt, err := Optimal(context.Background(), p, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idb, err := IDB(context.Background(), p, IDBOptions{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	rfh, err := RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
	if err != nil {
		t.Fatal(err)
	}
	if idb.Cost < opt.Cost-costEps || rfh.Cost < opt.Cost-costEps {
		t.Errorf("heuristics beat the optimum under rates: opt=%.4f idb=%.4f rfh=%.4f",
			opt.Cost, idb.Cost, rfh.Cost)
	}
	gap := (rfh.Cost - opt.Cost) / opt.Cost
	if gap > 0.15 {
		t.Errorf("weighted RFH gap to optimal %.1f%% is excessive", gap*100)
	}
}
