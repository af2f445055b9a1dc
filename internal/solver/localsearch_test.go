package solver

import (
	"context"
	"math"
	"testing"

	"wrsn/internal/model"
)

func TestLocalSearchImprovesOrMatchesSeed(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := randomProblem(t, seed+40, 200, 12, 40)
		rfh, err := RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := LocalSearch(context.Background(), p, LocalSearchOptions{Start: rfh})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ls.Cost > rfh.Cost+costEps {
			t.Errorf("seed %d: local search worsened the seed: %.6f -> %.6f", seed, rfh.Cost, ls.Cost)
		}
		if _, err := model.Evaluate(p, ls.Deploy, ls.Tree); err != nil {
			t.Errorf("seed %d: invalid result: %v", seed, err)
		}
	}
}

// TestLocalSearchReachesOptimumOnSmallInstances: from an RFH seed the
// hill climber should close most of the gap to the exact optimum, and
// never do worse than the seed.
func TestLocalSearchNearOptimal(t *testing.T) {
	worst := 0.0
	for seed := int64(1); seed <= 8; seed++ {
		p := randomProblem(t, seed+60, 150, 7, 18)
		opt, err := Optimal(context.Background(), p, OptimalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := LocalSearch(context.Background(), p, LocalSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ls.Cost < opt.Cost-costEps {
			t.Fatalf("seed %d: local search %.6f beat the optimum %.6f", seed, ls.Cost, opt.Cost)
		}
		gap := (ls.Cost - opt.Cost) / opt.Cost
		worst = math.Max(worst, gap)
		if gap > 0.05 {
			t.Errorf("seed %d: local search gap to optimal %.2f%% exceeds 5%%", seed, gap*100)
		}
	}
	t.Logf("worst local-search gap to optimal over 8 seeds: %.3f%%", worst*100)
}

func TestLocalSearchIsOneMoveOptimal(t *testing.T) {
	p := randomProblem(t, 77, 200, 8, 20)
	ls, err := LocalSearch(context.Background(), p, LocalSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := model.NewCostEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	n := p.N()
	for from := 0; from < n; from++ {
		if ls.Deploy[from] <= 1 {
			continue
		}
		for to := 0; to < n; to++ {
			if to == from {
				continue
			}
			probe := ls.Deploy.Clone()
			probe[from]--
			probe[to]++
			cost, err := ev.MinCost(probe)
			if err != nil {
				t.Fatal(err)
			}
			if cost < ls.Cost-1e-6 {
				t.Fatalf("not 1-move-optimal: moving a node %d->%d improves %.6f to %.6f",
					from, to, ls.Cost, cost)
			}
		}
	}
}

func TestLocalSearchMaxPasses(t *testing.T) {
	p := randomProblem(t, 78, 200, 10, 40)
	one, err := LocalSearch(context.Background(), p, LocalSearchOptions{MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := LocalSearch(context.Background(), p, LocalSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Cost > one.Cost+costEps {
		t.Errorf("unbounded search (%.6f) worse than 1-pass (%.6f)", full.Cost, one.Cost)
	}
}

func TestLocalSearchRejectsBadSeed(t *testing.T) {
	p := randomProblem(t, 79, 200, 8, 20)
	bad := &Result{Solution: model.Solution{Deploy: model.Ones(3)}} // wrong size
	if _, err := LocalSearch(context.Background(), p, LocalSearchOptions{Start: bad}); err == nil {
		t.Error("invalid seed accepted")
	}
}
