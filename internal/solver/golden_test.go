package solver

import (
	"context"
	"math"
	"testing"

	"wrsn/internal/model"
)

// TestGoldenCosts pins exact solver outputs on fixed seeds, a regression
// net for the whole pipeline (geometry -> energy -> fat tree -> trim ->
// merge -> allocation -> evaluation). These values were produced by this
// implementation and verified for the invariants the suite checks
// (optimal <= IDB <= RFH, magnitudes in the paper's band); any
// *unintentional* change to an algorithm or model constant shifts them.
// If a deliberate algorithm change moves a value, re-record it in the
// same run that changes the algorithm.
func TestGoldenCosts(t *testing.T) {
	const tol = 1e-9 // everything here is deterministic; exact to FP noise

	cases := []struct {
		name  string
		seed  int64
		side  float64
		posts int
		nodes int
		solve func(*testing.T, int64, float64, int, int) float64
		want  float64
	}{
		{
			name: "iterRFH small", seed: 1, side: 200, posts: 8, nodes: 20,
			solve: goldenSolve(func(p *problemT) (*Result, error) {
				return RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
			}),
			want: 675.6848958333334,
		},
		{
			name: "IDB small", seed: 1, side: 200, posts: 8, nodes: 20,
			solve: goldenSolve(func(p *problemT) (*Result, error) {
				return IDB(context.Background(), p, IDBOptions{Delta: 1})
			}),
			want: 675.6848958333334,
		},
		{
			name: "optimal small", seed: 1, side: 200, posts: 8, nodes: 20,
			solve: goldenSolve(func(p *problemT) (*Result, error) { return Optimal(context.Background(), p, OptimalOptions{}) }),
			want:  675.6848958333334,
		},
		{
			name: "iterRFH mid", seed: 5, side: 300, posts: 20, nodes: 60,
			solve: goldenSolve(func(p *problemT) (*Result, error) {
				return RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
			}),
			want: 2326.5787760416670,
		},
		{
			name: "IDB mid", seed: 5, side: 300, posts: 20, nodes: 60,
			solve: goldenSolve(func(p *problemT) (*Result, error) {
				return IDB(context.Background(), p, IDBOptions{Delta: 1})
			}),
			want: 2326.3769531250000,
		},
		// Anneal at the ext-portfolio shape (350 m, 40 posts, 200 nodes)
		// and on a placement instance.
		{
			name: "anneal portfolio 1", seed: 1, side: 350, posts: 40, nodes: 200,
			solve: goldenSolve(func(p *problemT) (*Result, error) { return Anneal(context.Background(), p, AnnealOptions{Seed: 1}) }),
			want:  2987.5214435829153,
		},
		{
			name: "anneal portfolio 2", seed: 2, side: 350, posts: 40, nodes: 200,
			solve: goldenSolve(func(p *problemT) (*Result, error) { return Anneal(context.Background(), p, AnnealOptions{Seed: 2}) }),
			want:  3663.9038353076148,
		},
		{
			name: "anneal portfolio 3", seed: 3, side: 350, posts: 40, nodes: 200,
			solve: goldenSolve(func(p *problemT) (*Result, error) { return Anneal(context.Background(), p, AnnealOptions{Seed: 3}) }),
			want:  2957.6986506842313,
		},
		{
			name: "anneal placement", seed: 1,
			solve: goldenPlacementAnneal,
			want:  6.0687745109747,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.solve(t, tc.seed, tc.side, tc.posts, tc.nodes)
			if math.Abs(got-tc.want) > tol {
				t.Errorf("cost = %.13f, recorded golden value %.13f", got, tc.want)
			}
		})
	}
}

type problemT = model.Problem

// goldenSolve adapts a solver call to the golden-table shape.
func goldenSolve(solve func(*problemT) (*Result, error)) func(*testing.T, int64, float64, int, int) float64 {
	return func(t *testing.T, seed int64, side float64, posts, nodes int) float64 {
		t.Helper()
		p := randomProblem(t, seed, side, posts, nodes)
		res, err := solve(p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cost
	}
}

// goldenPlacementAnneal anneals the placement differential instance of
// the given seed through the generic instance path.
func goldenPlacementAnneal(t *testing.T, seed int64, _ float64, _, _ int) float64 {
	t.Helper()
	res, err := Anneal(context.Background(), testPlacementInstance(t, seed), AnnealOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.Cost
}
