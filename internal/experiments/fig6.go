package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"wrsn/internal/energy"
	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/solver"
	"wrsn/internal/texttable"
)

// Fig6Iterations is how many RFH rounds the convergence study plots; the
// paper observes convergence within seven rounds and plots ten.
const Fig6Iterations = 10

// Fig6 reproduces the iterative-RFH convergence study: a 500x500m field
// with 100 posts, node counts in {400, 600, 800, 1000}, total recharging
// cost (µJ) after each of 1..10 iterations, averaged over 20 post
// distributions. Each node count is one sweep point producing a Vector
// output — its whole per-iteration convergence curve — so the figure's
// x-axis is the iteration number, not the points' node counts.
func Fig6(opts Options) (*Figure, error) {
	const (
		side  = 500.0
		posts = 100
	)
	nodeCounts := []int{400, 600, 800, 1000}
	seeds := opts.seeds(20, 3)
	if opts.Quick {
		nodeCounts = []int{400, 800}
	}

	sw := &engine.Sweep{
		ID:       "fig6",
		Title:    "The benefit of running RFH iteratively (500x500m, 100 posts)",
		XLabel:   "iteration",
		YLabel:   "total recharging cost (µJ)",
		Seeds:    seeds,
		BaseSeed: opts.baseSeed(),
	}
	for it := 1; it <= Fig6Iterations; it++ {
		sw.X = append(sw.X, float64(it))
	}
	field := geom.Square(side)
	for _, m := range nodeCounts {
		m := m
		sw.Points = append(sw.Points, engine.Point{
			X:     float64(m),
			Label: fmt.Sprintf("%d nodes", m),
			Gen: engine.ProblemGen(func(rng *rand.Rand) (*model.Problem, error) {
				return randomConnectedProblem(rng, field, posts, m, energy.Default())
			}),
		})
	}
	sw.Algorithms = []engine.Algorithm{{
		Label:   "RFH convergence",
		Outputs: []engine.SeriesSpec{{Vector: true}},
		Run: func(ctx context.Context, inst *engine.Instance) (engine.CellResult, error) {
			res, err := solver.RFH(ctx, inst.Problem(), solver.RFHOptions{Iterations: Fig6Iterations})
			if err != nil {
				return engine.CellResult{}, err
			}
			costs := make([]float64, len(res.IterationCosts))
			for i, c := range res.IterationCosts {
				costs[i] = njToMicroJ(c)
			}
			return engine.CellResult{Values: costs, Evaluations: res.Evaluations}, nil
		},
	}}
	return runFigure(opts, sw)
}

// Fig6Table renders the convergence series as a table: one row per
// iteration, one column per node count.
func Fig6Table(fig *Figure) *texttable.Table {
	headers := []string{"iteration"}
	for _, s := range fig.Series {
		headers = append(headers, s.Label+" (µJ)")
	}
	t := texttable.New(fig.Title, headers...)
	for xi, x := range fig.X {
		row := []interface{}{int(x)}
		for _, s := range fig.Series {
			row = append(row, s.Y[xi])
		}
		t.AddRow(row...)
	}
	return t
}
