package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"wrsn/internal/deploy"
	"wrsn/internal/energy"
	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/sim"
	"wrsn/internal/solver"
)

// ExtRepair measures what online routing-tree repair buys under sustained
// permanent node failures. Three policies run over identical topologies
// and failure sequences:
//
//   - no repair: the planned tree stays static; every dead post severs
//     its whole subtree for the rest of the run.
//   - online repair: dead posts trigger a rebuild of the routing tree
//     over the surviving posts (recharging-cost shortest paths + trim +
//     sibling merge), re-attaching orphaned subtrees after a short
//     detection/patch latency.
//   - repair + spares: online repair on a deployment inflated by
//     deploy.ProvisionSpares so each post keeps its planned strength with
//     90% confidence over the horizon — posts rarely die at all.
//
// The figure reports mean delivery ratio per policy across the failure
// sweep, plus the online-repair arm's analytic cost inflation: how much
// more charger energy per round the patched trees need relative to the
// original plan (longer hops, weaker charging efficiency at thinned
// posts).
func ExtRepair(opts Options) (*Figure, error) {
	const (
		side          = 250.0
		posts         = 20
		nodes         = 80
		repairLatency = 10
		confidence    = 0.90
	)
	// Per-node per-round failure probabilities. Over the 6000-round
	// horizon these kill ~0%, 14%, 45% and 78% of nodes respectively.
	failureRates := []float64{0, 2.5e-5, 1e-4, 2.5e-4}
	rounds := 3 * sim.DefaultBatteryRounds

	sw := &engine.Sweep{
		ID:     "ext-repair",
		Title:  "Extension: self-healing under permanent node failures (250x250m, 20 posts, 80 planned nodes)",
		XLabel: "per-node failure probability per round",
		YLabel: "delivery ratio",
		// 4 quick seeds, not the usual 2: the repair-beats-static margin at
		// the heaviest failure rate is a cross-seed average, and two seeds
		// leave it within realisation noise. The event-driven simulator core
		// keeps even the quick sweep cheap.
		Seeds:    opts.seeds(6, 4),
		BaseSeed: opts.baseSeed(),
	}
	field := geom.Square(side)
	for _, rate := range failureRates {
		sw.Points = append(sw.Points, engine.Point{
			X:     rate,
			Label: fmt.Sprintf("p=%g", rate),
			Gen: engine.ProblemGen(func(rng *rand.Rand) (*model.Problem, error) {
				return randomConnectedProblem(rng, field, posts, nodes, energy.Default())
			}),
		})
	}
	sw.Algorithms = []engine.Algorithm{{
		Label: "repair policies",
		Outputs: []engine.SeriesSpec{
			{Label: "no repair", Unit: "-"},
			{Label: "online repair", Unit: "-"},
			{Label: "repair + spares", Unit: "-"},
			{Label: "repair cost inflation", Unit: "%"},
		},
		Run: func(ctx context.Context, inst *engine.Instance) (engine.CellResult, error) {
			rate := failureRates[inst.Point]
			opt, err := solver.IDB(ctx, inst.Problem(), solver.IDBOptions{Delta: 1})
			if err != nil {
				return engine.CellResult{}, err
			}

			// All three arms replay the same failure sequence: the
			// simulator seed depends only on the cell, not the policy.
			simSeed := inst.BaseSeed + int64(1000*inst.Point) + int64(inst.Seed)
			run := func(p *model.Problem, sol model.Solution, rc *sim.RepairConfig) (*sim.Metrics, error) {
				simulator, err := sim.New(sim.Config{
					Problem:  p,
					Solution: sol,
					Charger: &sim.ChargerConfig{
						PowerPerRound: 1e9,
						SpeedPerRound: 1e6,
					},
					Faults: &sim.FaultConfig{NodeFailurePerRound: rate},
					Repair: rc,
					Seed:   simSeed,
				})
				if err != nil {
					return nil, err
				}
				return simulator.RunCtx(ctx, rounds)
			}

			mNo, err := run(inst.Problem(), opt.Solution, nil)
			if err != nil {
				return engine.CellResult{}, err
			}
			mRep, err := run(inst.Problem(), opt.Solution, &sim.RepairConfig{LatencyRounds: repairLatency})
			if err != nil {
				return engine.CellResult{}, err
			}

			// Spares arm: inflate the planned deployment so each post keeps
			// its planned strength with `confidence` over the horizon, then
			// re-derive the best tree for the inflated strengths.
			survive := math.Pow(1-rate, float64(rounds))
			inflated, total, err := deploy.ProvisionSpares(opt.Deploy, survive, confidence)
			if err != nil {
				return engine.CellResult{}, err
			}
			pSpares := *inst.Problem()
			pSpares.Nodes = total
			sparesTree, _, err := model.BestTreeFor(&pSpares, inflated)
			if err != nil {
				return engine.CellResult{}, err
			}
			mSpares, err := run(&pSpares, model.Solution{Deploy: inflated, Tree: sparesTree},
				&sim.RepairConfig{LatencyRounds: repairLatency})
			if err != nil {
				return engine.CellResult{}, err
			}

			// Cost inflation only exists once a repair ran; a run without
			// any post death contributes 0 (the plan is untouched).
			pct := 0.0
			if mRep.Repairs > 0 {
				pct = 100 * mRep.RepairCostInflation
			}
			return engine.CellResult{
				Values:      []float64{mNo.DeliveryRatio(), mRep.DeliveryRatio(), mSpares.DeliveryRatio(), pct},
				Evaluations: opt.Evaluations,
			}, nil
		},
	}}
	return runFigure(opts, sw)
}
