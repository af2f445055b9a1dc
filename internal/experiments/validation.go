package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"wrsn/internal/energy"
	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/sim"
	"wrsn/internal/solver"
	"wrsn/internal/stats"
)

// ExtSimValidation closes the loop between the analytic objective and the
// running system: for a batch of solved networks it simulates thousands
// of reporting rounds with an over-provisioned charger and reports the
// relative deviation between the charger's measured energy per delivered
// bit-round and model.Evaluate's prediction. Deviations sit well under a
// percent — evidence that the optimisation objective prices exactly what
// a real charging schedule pays. Unlike the comparison sweeps, every
// x position here is its own instance, so the sweep decorrelates points
// with SeedStride=1 and runs a single seed per point.
func ExtSimValidation(opts Options) (*Figure, error) {
	const (
		side       = 250.0
		posts      = 15
		nodes      = 60
		packetBits = 1000
	)
	seeds := opts.seeds(8, 2)
	rounds := 20000
	if opts.Quick {
		rounds = 8000
	}

	sw := &engine.Sweep{
		ID:         "ext-validation",
		Title:      "Extension: simulator vs analytic recharging cost (250x250m, 15 posts, 60 nodes)",
		XLabel:     "instance",
		YLabel:     "nJ per bit-round / % deviation",
		Seeds:      1,
		SeedStride: 1,
		BaseSeed:   opts.baseSeed(),
	}
	field := geom.Square(side)
	for s := 0; s < seeds; s++ {
		sw.Points = append(sw.Points, engine.Point{
			X:     float64(s + 1),
			Label: fmt.Sprintf("instance %d", s+1),
			Gen: engine.ProblemGen(func(rng *rand.Rand) (*model.Problem, error) {
				return model.GenerateProblem(rng, model.GenSpec{Field: field, Posts: posts, Nodes: nodes, Energy: energy.Default()})
			}),
		})
	}
	sw.Algorithms = []engine.Algorithm{{
		Label: "simulated RFH network",
		Outputs: []engine.SeriesSpec{
			{Label: "analytic cost", Unit: "nJ/bit-round"},
			{Label: "empirical cost", Unit: "nJ/bit-round"},
			{Label: "deviation", Unit: "%"},
		},
		Run: func(ctx context.Context, inst *engine.Instance) (engine.CellResult, error) {
			res, err := solver.RFH(ctx, inst.Problem(), solver.RFHOptions{Iterations: solver.DefaultRFHIterations})
			if err != nil {
				return engine.CellResult{}, err
			}
			simulator, err := sim.New(sim.Config{
				Problem:  inst.Problem(),
				Solution: res.Solution,
				Charger: &sim.ChargerConfig{
					PowerPerRound: 1e9,
					SpeedPerRound: 1e6,
					FillToFrac:    0.95,
					TargetFrac:    0.90,
				},
				PacketBits:        packetBits,
				InitialChargeFrac: 0.93,
				Seed:              inst.InstanceSeed,
			})
			if err != nil {
				return engine.CellResult{}, err
			}
			m, err := simulator.RunCtx(ctx, rounds)
			if err != nil {
				return engine.CellResult{}, err
			}
			a, err := simulator.AnalyticCostPerBitRound()
			if err != nil {
				return engine.CellResult{}, err
			}
			e := m.EmpiricalCostPerBitRound(packetBits)
			return engine.CellResult{
				Values:      []float64{a, e, stats.RelDiff(e, a) * 100},
				Evaluations: res.Evaluations,
			}, nil
		},
	}}
	return runFigure(opts, sw)
}
