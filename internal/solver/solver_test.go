package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"wrsn/internal/model"
)

const costEps = 1e-6

// TestHeuristicsNeverBeatExhaustive is the core cross-check: on random
// tiny instances, branch-and-bound equals the exhaustive optimum, and
// every heuristic is at or above it. Besides the paper's defaults it
// covers the golden table's overhead variant (report rates and per-post
// overheads) and saturating-gain variant, whose branch-and-bound bounds
// take their own paths.
func TestHeuristicsNeverBeatExhaustive(t *testing.T) {
	for _, variant := range []string{"", "overhead", "saturating"} {
		for seed := int64(1); seed <= 12; seed++ {
			name := fmt.Sprintf("seed %d", seed)
			var p *model.Problem
			if variant == "" {
				p = randomProblem(t, seed, 150, 6, 6+int(seed)%8)
			} else {
				name += " " + variant
				p = optimalGoldenCase{seed: seed, posts: 6, nodes: 6 + int(seed)%8, variant: variant}.problem(t)
			}
			checkAgainstExhaustive(t, name, p)
		}
	}
}

// checkAgainstExhaustive asserts that branch and bound finds the
// exhaustive optimum of p and that no heuristic beats it.
func checkAgainstExhaustive(t *testing.T, name string, p *model.Problem) {
	t.Helper()
	naive, err := NaiveExact(p)
	if err != nil {
		t.Fatalf("%s NaiveExact: %v", name, err)
	}
	opt, err := Optimal(context.Background(), p, OptimalOptions{})
	if err != nil {
		t.Fatalf("%s Optimal: %v", name, err)
	}
	if math.Abs(opt.Cost-naive.Cost) > costEps {
		t.Errorf("%s: B&B %.6f != exhaustive %.6f", name, opt.Cost, naive.Cost)
	}
	// Bound probes count as evaluations, so on tiny search spaces
	// B&B can probe more than the exhaustive count — just log it.
	t.Logf("%s: optimum %.4f; B&B %d evaluations vs exhaustive %d",
		name, naive.Cost, opt.Evaluations, naive.Evaluations)
	for heuristic, solve := range map[string]func() (*Result, error){
		"basicRFH": func() (*Result, error) { return RFH(context.Background(), p, RFHOptions{Iterations: 1}) },
		"iterRFH": func() (*Result, error) {
			return RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
		},
		"IDB1": func() (*Result, error) { return IDB(context.Background(), p, IDBOptions{Delta: 1}) },
		"IDB2": func() (*Result, error) { return IDB(context.Background(), p, IDBOptions{Delta: 2}) },
	} {
		res, err := solve()
		if err != nil {
			t.Fatalf("%s %s: %v", name, heuristic, err)
		}
		if res.Cost < naive.Cost-costEps {
			t.Errorf("%s: %s cost %.6f beats the optimum %.6f", name, heuristic, res.Cost, naive.Cost)
		}
	}
}

// TestSolutionsAreValid: every solver's output must survive full
// validation and re-evaluate to its recorded cost.
func TestSolutionsAreValid(t *testing.T) {
	p := randomProblem(t, 2, 200, 12, 40)
	for name, solve := range map[string]func() (*Result, error){
		"basicRFH": func() (*Result, error) { return RFH(context.Background(), p, RFHOptions{Iterations: 1}) },
		"iterRFH": func() (*Result, error) {
			return RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
		},
		"IDB1":    func() (*Result, error) { return IDB(context.Background(), p, IDBOptions{Delta: 1}) },
		"IDB3":    func() (*Result, error) { return IDB(context.Background(), p, IDBOptions{Delta: 3}) },
		"optimal": func() (*Result, error) { return Optimal(context.Background(), p, OptimalOptions{}) },
	} {
		res, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cost, err := model.Evaluate(p, res.Deploy, res.Tree)
		if err != nil {
			t.Errorf("%s produced invalid solution: %v", name, err)
			continue
		}
		if math.Abs(cost-res.Cost) > costEps {
			t.Errorf("%s: recorded cost %.6f != re-evaluated %.6f", name, res.Cost, cost)
		}
		if res.Deploy.Sum() != p.Nodes {
			t.Errorf("%s deployed %d of %d nodes", name, res.Deploy.Sum(), p.Nodes)
		}
	}
}

func TestRFHIterationCosts(t *testing.T) {
	p := randomProblem(t, 3, 400, 60, 240)
	res, err := RFH(context.Background(), p, RFHOptions{Iterations: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterationCosts) != 9 {
		t.Fatalf("recorded %d iteration costs, want 9", len(res.IterationCosts))
	}
	best := math.Inf(1)
	for _, c := range res.IterationCosts {
		best = math.Min(best, c)
	}
	if math.Abs(best-res.Cost) > costEps {
		t.Errorf("returned cost %.6f is not the best iterate %.6f", res.Cost, best)
	}
	// The refinement must help (or at worst match) on a network this
	// size: final iterate no worse than the first.
	first, last := res.IterationCosts[0], res.IterationCosts[len(res.IterationCosts)-1]
	if last > first+costEps {
		t.Errorf("iteration made things worse overall: %.4f -> %.4f", first, last)
	}
}

func TestRFHDefaultsToOneIteration(t *testing.T) {
	p := randomProblem(t, 4, 200, 8, 16)
	res, err := RFH(context.Background(), p, RFHOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterationCosts) != 1 {
		t.Errorf("zero-value options ran %d iterations, want 1", len(res.IterationCosts))
	}
}

func TestSolversDeterministic(t *testing.T) {
	p := randomProblem(t, 5, 300, 20, 60)
	for name, solve := range map[string]func() (*Result, error){
		"iterRFH": func() (*Result, error) {
			return RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
		},
		"IDB1": func() (*Result, error) { return IDB(context.Background(), p, IDBOptions{Delta: 1}) },
	} {
		a, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Cost != b.Cost {
			t.Errorf("%s: costs differ across runs: %v vs %v", name, a.Cost, b.Cost)
		}
		for i := range a.Deploy {
			if a.Deploy[i] != b.Deploy[i] {
				t.Errorf("%s: deployment differs at post %d", name, i)
				break
			}
		}
	}
}

func TestIDBDeltaVariants(t *testing.T) {
	p := randomProblem(t, 6, 200, 8, 23) // M-N = 15, not divisible by 2 or 4
	for _, delta := range []int{1, 2, 4, 15, 100} {
		res, err := IDB(context.Background(), p, IDBOptions{Delta: delta})
		if err != nil {
			t.Fatalf("delta=%d: %v", delta, err)
		}
		if res.Deploy.Sum() != p.Nodes {
			t.Errorf("delta=%d deployed %d nodes", delta, res.Deploy.Sum())
		}
	}
	if _, err := IDB(context.Background(), p, IDBOptions{Delta: 0}); err == nil {
		t.Error("IDB accepted delta = 0")
	}
}

func TestIDBExactWhenBudgetCoversSearch(t *testing.T) {
	// With M = N (no spare nodes) every solver must agree exactly: the
	// deployment is forced, so only routing matters.
	p := randomProblem(t, 7, 200, 9, 9)
	idb, err := IDB(context.Background(), p, IDBOptions{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimal(context.Background(), p, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idb.Cost-opt.Cost) > costEps {
		t.Errorf("forced deployment but IDB %.6f != optimal %.6f", idb.Cost, opt.Cost)
	}
}

func TestOptimalBudget(t *testing.T) {
	p := randomProblem(t, 8, 200, 9, 27)
	if _, err := Optimal(context.Background(), p, OptimalOptions{MaxEvaluations: 3}); !errors.Is(err, ErrSearchBudget) {
		t.Errorf("tiny budget error = %v, want ErrSearchBudget", err)
	}
}

func TestOptimalAcceptsIncumbent(t *testing.T) {
	p := randomProblem(t, 9, 200, 8, 20)
	seed, err := IDB(context.Background(), p, IDBOptions{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimal(context.Background(), p, OptimalOptions{Incumbent: seed})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost > seed.Cost+costEps {
		t.Errorf("optimal %.6f worse than its incumbent %.6f", opt.Cost, seed.Cost)
	}
}

func TestSolversRejectInvalidProblem(t *testing.T) {
	p := randomProblem(t, 10, 200, 8, 20)
	bad := *p
	bad.Nodes = 3 // fewer nodes than posts
	for name, solve := range map[string]func() error{
		"RFH":     func() error { _, err := RFH(context.Background(), &bad, RFHOptions{Iterations: 1}); return err },
		"IDB":     func() error { _, err := IDB(context.Background(), &bad, IDBOptions{Delta: 1}); return err },
		"Optimal": func() error { _, err := Optimal(context.Background(), &bad, OptimalOptions{}); return err },
		"Naive":   func() error { _, err := NaiveExact(&bad); return err },
	} {
		if err := solve(); err == nil {
			t.Errorf("%s accepted an invalid problem", name)
		}
	}
}

// TestPaperScaleBehaviour pins the paper's qualitative large-scale
// claims on one fixed seed: iterative RFH converges within 7 rounds,
// IDB beats RFH, and the cost magnitude lands in the paper's µJ range.
func TestPaperScaleBehaviour(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	p := randomProblem(t, 42, 500, 100, 600)
	rfh, err := RFH(context.Background(), p, RFHOptions{Iterations: 7})
	if err != nil {
		t.Fatal(err)
	}
	idb, err := IDB(context.Background(), p, IDBOptions{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if idb.Cost > rfh.Cost+costEps {
		t.Errorf("IDB (%.1f) should beat RFH (%.1f) at scale", idb.Cost, rfh.Cost)
	}
	gap := (rfh.Cost - idb.Cost) / idb.Cost
	if gap > 0.15 {
		t.Errorf("RFH-IDB gap %.1f%% far above the paper's ~5%%", gap*100)
	}
	// Paper: ~8.26 µJ at 600 nodes / 100 posts (first-iteration RFH).
	firstIter := rfh.IterationCosts[0] / 1000
	if firstIter < 4 || firstIter > 16 {
		t.Errorf("basic-RFH cost %.2f µJ outside the paper's magnitude band", firstIter)
	}
	// Convergence within 7 rounds: last two iterates within 1%.
	n := len(rfh.IterationCosts)
	if rel := math.Abs(rfh.IterationCosts[n-1]-rfh.IterationCosts[n-2]) / rfh.IterationCosts[n-2]; rel > 0.01 {
		t.Errorf("not converged by iteration 7: last step changed %.2f%%", rel*100)
	}
}

func TestAutoMatchesOptimalOnSmall(t *testing.T) {
	p := randomProblem(t, 30, 150, 6, 14)
	auto, err := Auto(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimal(context.Background(), p, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auto.Cost-opt.Cost) > costEps {
		t.Errorf("Auto (%.6f) should be exact on small instances (optimal %.6f)", auto.Cost, opt.Cost)
	}
}

func TestAutoUsesIDBOnMidSize(t *testing.T) {
	p := randomProblem(t, 31, 300, 25, 100)
	auto, err := Auto(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	idb, err := IDB(context.Background(), p, IDBOptions{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auto.Cost-idb.Cost) > costEps {
		t.Errorf("Auto (%.6f) should match IDB (%.6f) at this scale", auto.Cost, idb.Cost)
	}
}

func TestAutoNeverWorseThanRFHAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	p := randomProblem(t, 42, 500, 100, 5200) // (M-N)*N ~ 510k: falls to RFH+polish
	auto, err := Auto(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	rfh, err := RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Cost > rfh.Cost+costEps {
		t.Errorf("Auto (%.6f) worse than plain RFH (%.6f)", auto.Cost, rfh.Cost)
	}
}

func TestRFHPhase1WeightAblation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := randomProblem(t, seed+120, 300, 30, 120)
		txOnly, err := RFH(context.Background(), p, RFHOptions{Iterations: 7})
		if err != nil {
			t.Fatal(err)
		}
		withRx, err := RFH(context.Background(), p, RFHOptions{Iterations: 7, IncludeRxInPhase1: true})
		if err != nil {
			t.Fatal(err)
		}
		// Both are valid heuristics; neither may produce an invalid
		// solution, and after 7 recharge-cost-weighted iterations they
		// should land within a few percent of each other.
		rel := math.Abs(txOnly.Cost-withRx.Cost) / math.Min(txOnly.Cost, withRx.Cost)
		if rel > 0.10 {
			t.Errorf("seed %d: phase-1 weight choice moved the cost %.1f%% (%.4f vs %.4f)",
				seed, rel*100, txOnly.Cost, withRx.Cost)
		}
	}
}
