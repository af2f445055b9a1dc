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
)

// ExtFaultTolerance probes the paper's fault-tolerance claim ("deploying
// multiple nodes in one post can increase the recharging efficiency and
// fault tolerance"): under sustained permanent node failures, how does
// the optimised (workload-concentrated) deployment's delivery compare to
// a uniform spread of the same node budget? Concentration keeps the heavy
// relay posts redundant exactly where a single failure would sever the
// most traffic, while uniform spreading leaves every post moderately
// redundant. The experiment sweeps the per-node failure rate and reports
// delivery for both under identical failure sequences.
func ExtFaultTolerance(opts Options) (*Figure, error) {
	const (
		side  = 250.0
		posts = 15
		nodes = 75
	)
	// Per-node per-round probabilities (failures per round follow
	// Binomial(alive, p)); over the 6000-round horizon these kill roughly
	// 0%, 14%, 45%, 78% and 99.8% of the fleet.
	failureRates := []float64{0, 2.5e-5, 1e-4, 2.5e-4, 1e-3}
	rounds := 3 * sim.DefaultBatteryRounds

	sw := &engine.Sweep{
		ID:       "ext-fault",
		Title:    "Extension: delivery under permanent node failures (250x250m, 15 posts, 75 nodes)",
		XLabel:   "per-node failure probability per round",
		YLabel:   "delivery ratio",
		Seeds:    opts.seeds(6, 2),
		BaseSeed: opts.baseSeed(),
	}
	field := geom.Square(side)
	for _, rate := range failureRates {
		sw.Points = append(sw.Points, engine.Point{
			X:     rate,
			Label: fmt.Sprintf("p=%g", rate),
			Gen: engine.ProblemGen(func(rng *rand.Rand) (*model.Problem, error) {
				return model.GenerateProblem(rng, model.GenSpec{Field: field, Posts: posts, Nodes: nodes, Energy: energy.Default()})
			}),
		})
	}
	sw.Algorithms = []engine.Algorithm{{
		Label: "failure sweep",
		Outputs: []engine.SeriesSpec{
			{Label: "optimised deployment", Unit: "-"},
			{Label: "uniform deployment", Unit: "-"},
		},
		Run: func(ctx context.Context, inst *engine.Instance) (engine.CellResult, error) {
			rate := failureRates[inst.Point]
			opt, err := solver.IDB(ctx, inst.Problem(), solver.IDBOptions{Delta: 1})
			if err != nil {
				return engine.CellResult{}, err
			}
			uniDeploy, err := model.UniformDeployment(inst.Problem().N(), inst.Problem().Nodes)
			if err != nil {
				return engine.CellResult{}, err
			}
			uniTree, _, err := model.BestTreeFor(inst.Problem(), uniDeploy)
			if err != nil {
				return engine.CellResult{}, err
			}
			// Both deployments replay the *same* failure sequence: the
			// simulator seed depends only on the cell, not the solution.
			simSeed := inst.BaseSeed + int64(1000*inst.Point) + int64(inst.Seed)
			run := func(sol model.Solution) (float64, error) {
				simulator, err := sim.New(sim.Config{
					Problem:  inst.Problem(),
					Solution: sol,
					Charger: &sim.ChargerConfig{
						PowerPerRound: 1e9,
						SpeedPerRound: 1e6,
					},
					Faults: &sim.FaultConfig{NodeFailurePerRound: rate},
					Seed:   simSeed,
				})
				if err != nil {
					return 0, err
				}
				m, err := simulator.RunCtx(ctx, rounds)
				if err != nil {
					return 0, err
				}
				return m.DeliveryRatio(), nil
			}
			optRatio, err := run(opt.Solution)
			if err != nil {
				return engine.CellResult{}, err
			}
			uniRatio, err := run(model.Solution{Deploy: uniDeploy, Tree: uniTree})
			if err != nil {
				return engine.CellResult{}, err
			}
			return engine.CellResult{
				Values:      []float64{optRatio, uniRatio},
				Evaluations: opt.Evaluations,
			}, nil
		},
	}}
	return runFigure(opts, sw)
}
