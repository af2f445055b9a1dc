package experiments

import (
	"context"
	"math/rand"
	"strconv"
	"time"

	"wrsn/internal/energy"
	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/solver"
)

// ExtDelta studies IDB's per-round increment δ, which the paper introduces
// as "a system parameter" without evaluating: each round places δ nodes
// after examining C(N+δ-1, N-1) candidates, so larger δ is less greedy
// but combinatorially more expensive. The experiment reports cost and
// runtime per δ. In practice δ=1 is near-optimal — larger increments buy
// almost nothing for orders of magnitude more work, justifying the
// paper's δ=1 comparisons. (δ=1 is also the shape the incremental
// evaluator exploits best: each candidate is a single-post CostDelta
// probe against the round's committed deployment.)
func ExtDelta(opts Options) (*Figure, error) {
	const (
		side  = 300.0
		posts = 25
		nodes = 125
	)
	deltas := []int{1, 2, 3, 4}

	sw := &engine.Sweep{
		ID:       "ext-delta",
		Title:    "Extension: IDB increment δ (300x300m, 25 posts, 125 nodes)",
		XLabel:   "delta (nodes placed per round)",
		YLabel:   "total recharging cost (µJ) / runtime (ms)",
		Seeds:    opts.seeds(10, 2),
		BaseSeed: opts.baseSeed(),
	}
	field := geom.Square(side)
	for _, d := range deltas {
		sw.Points = append(sw.Points, engine.Point{
			X:     float64(d),
			Label: DeltaLabel(d),
			Gen: engine.ProblemGen(func(rng *rand.Rand) (*model.Problem, error) {
				return model.GenerateProblem(rng, model.GenSpec{Field: field, Posts: posts, Nodes: nodes, Energy: energy.Default()})
			}),
		})
	}
	sw.Algorithms = []engine.Algorithm{{
		Label: "IDB",
		Outputs: []engine.SeriesSpec{
			{Label: "IDB cost"},
			{Label: "runtime", Unit: "ms"},
			{Label: "deployments evaluated", Unit: "-"},
		},
		Run: func(ctx context.Context, inst *engine.Instance) (engine.CellResult, error) {
			delta := deltas[inst.Point]
			start := time.Now()
			res, err := solver.IDB(ctx, inst.Problem(), solver.IDBOptions{Delta: delta})
			if err != nil {
				return engine.CellResult{}, err
			}
			return engine.CellResult{
				Values: []float64{
					njToMicroJ(res.Cost),
					float64(time.Since(start).Microseconds()) / 1000,
					float64(res.Evaluations),
				},
				Evaluations: res.Evaluations,
			}, nil
		},
	}}
	return runFigure(opts, sw)
}

// DeltaLabel names a delta value for table rendering.
func DeltaLabel(d int) string { return "δ=" + strconv.Itoa(d) }
