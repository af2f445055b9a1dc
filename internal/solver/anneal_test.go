package solver

import (
	"context"
	"math"
	"testing"

	"wrsn/internal/model"
)

func TestAnnealNeverWorseThanSeed(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := randomProblem(t, seed+140, 250, 15, 50)
		rfh, err := RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
		if err != nil {
			t.Fatal(err)
		}
		ann, err := Anneal(context.Background(), p, AnnealOptions{Start: rfh, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ann.Cost > rfh.Cost+costEps {
			t.Errorf("seed %d: anneal %.6f worse than its seed %.6f", seed, ann.Cost, rfh.Cost)
		}
		if _, err := model.Evaluate(p, ann.Deploy, ann.Tree); err != nil {
			t.Errorf("seed %d: invalid result: %v", seed, err)
		}
	}
}

func TestAnnealRespectsOptimum(t *testing.T) {
	p := randomProblem(t, 150, 150, 7, 18)
	opt, err := Optimal(context.Background(), p, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ann, err := Anneal(context.Background(), p, AnnealOptions{Seed: 1, Iterations: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if ann.Cost < opt.Cost-costEps {
		t.Fatalf("anneal %.6f beat the optimum %.6f", ann.Cost, opt.Cost)
	}
	gap := (ann.Cost - opt.Cost) / opt.Cost
	if gap > 0.05 {
		t.Errorf("anneal gap to optimal %.2f%% on a tiny instance", gap*100)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	p := randomProblem(t, 151, 200, 12, 40)
	seedRes, err := RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Anneal(context.Background(), p, AnnealOptions{Start: seedRes, Seed: 7, Iterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(context.Background(), p, AnnealOptions{Start: seedRes, Seed: 7, Iterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Cost-b.Cost) > 0 {
		t.Errorf("same seed, different costs: %v vs %v", a.Cost, b.Cost)
	}
}

func TestAnnealValidation(t *testing.T) {
	p := randomProblem(t, 152, 200, 8, 20)
	if _, err := Anneal(context.Background(), p, AnnealOptions{InitialTempFrac: 1e-6, FinalTempFrac: 1e-3}); err == nil {
		t.Error("inverted temperature schedule accepted")
	}
	bad := &Result{Solution: model.Solution{Deploy: model.Ones(2)}}
	if _, err := Anneal(context.Background(), p, AnnealOptions{Start: bad}); err == nil {
		t.Error("invalid seed accepted")
	}
}

// TestAnnealCanEscapeLocalSearchBasin: across a batch of instances,
// annealing seeded identically to local search must find at least one
// strictly better solution than hill climbing on some instance, or match
// it everywhere — it must never lose on average.
func TestAnnealVsLocalSearch(t *testing.T) {
	var annealTotal, lsTotal float64
	for seed := int64(1); seed <= 6; seed++ {
		p := randomProblem(t, seed+160, 250, 15, 45)
		rfhSeed, err := RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := LocalSearch(context.Background(), p, LocalSearchOptions{Start: rfhSeed})
		if err != nil {
			t.Fatal(err)
		}
		ann, err := Anneal(context.Background(), p, AnnealOptions{Start: rfhSeed, Seed: seed, Iterations: 6000})
		if err != nil {
			t.Fatal(err)
		}
		annealTotal += ann.Cost
		lsTotal += ls.Cost
	}
	t.Logf("totals over 6 instances: anneal %.2f vs local search %.2f", annealTotal, lsTotal)
	if annealTotal > lsTotal*1.02 {
		t.Errorf("annealing (%.2f) clearly loses to local search (%.2f)", annealTotal, lsTotal)
	}
}
