package solver

import (
	"context"
	"math/rand"
	"testing"

	"wrsn/internal/geom"
	"wrsn/internal/model"
)

// randomProblem builds a connected random instance in a side x side field
// with n posts and m nodes, regenerating the post set until connectivity
// at maximum range holds (small fields with few posts can disconnect).
func randomProblem(t testing.TB, seed int64, side float64, n, m int) *model.Problem {
	t.Helper()
	p, err := model.GenerateProblem(rand.New(rand.NewSource(seed)), model.GenSpec{
		Field: geom.Square(side),
		Posts: n,
		Nodes: m,
	})
	if err != nil {
		t.Fatalf("could not generate a connected instance (seed=%d side=%g n=%d m=%d): %v", seed, side, n, m, err)
	}
	return p
}

func TestSolversSmoke(t *testing.T) {
	p := randomProblem(t, 1, 200, 8, 20)

	rfh, err := RFH(context.Background(), p, RFHOptions{Iterations: 1})
	if err != nil {
		t.Fatalf("basic RFH: %v", err)
	}
	irfh, err := RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
	if err != nil {
		t.Fatalf("iterative RFH: %v", err)
	}
	idb, err := IDB(context.Background(), p, IDBOptions{Delta: 1})
	if err != nil {
		t.Fatalf("IDB: %v", err)
	}
	opt, err := Optimal(context.Background(), p, OptimalOptions{})
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	naive, err := NaiveExact(p)
	if err != nil {
		t.Fatalf("NaiveExact: %v", err)
	}

	t.Logf("costs: basicRFH=%.4f iterRFH=%.4f IDB=%.4f optimal=%.4f naive=%.4f (evals opt=%d naive=%d)",
		rfh.Cost, irfh.Cost, idb.Cost, opt.Cost, naive.Cost, opt.Evaluations, naive.Evaluations)

	const eps = 1e-6
	if opt.Cost > naive.Cost+eps || naive.Cost > opt.Cost+eps {
		t.Errorf("branch-and-bound optimum %.6f != exhaustive optimum %.6f", opt.Cost, naive.Cost)
	}
	if idb.Cost < opt.Cost-eps {
		t.Errorf("IDB cost %.6f beats the optimum %.6f", idb.Cost, opt.Cost)
	}
	if irfh.Cost < opt.Cost-eps {
		t.Errorf("iterative RFH cost %.6f beats the optimum %.6f", irfh.Cost, opt.Cost)
	}
	if irfh.Cost > rfh.Cost+eps {
		t.Errorf("iterative RFH %.6f should not be worse than basic RFH %.6f", irfh.Cost, rfh.Cost)
	}
}
