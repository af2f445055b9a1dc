package experiments

import (
	"context"
	"fmt"

	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/placement"
)

// This file holds the ext-placement study: the charger-placement problem
// family (internal/placement) run through the same sweep engine and the
// same registered solvers as the deployment figures. It exists both as an
// experiment — how does installed cost respond to the duty-cycle
// guarantee and to candidate-site density? — and as an end-to-end proof
// that the solver loops are genuinely problem-agnostic: idb-local-search
// and anneal here are byte-for-byte the loops that produce the paper's
// deployment figures.

// instanceCostAlgorithm adapts a registered solver into a one-output
// engine algorithm reporting the instance's native objective unchanged
// (placement costs are in site-cost units, not the deployment µJ).
func instanceCostAlgorithm(label string, solve engine.SolveFunc) engine.Algorithm {
	return engine.Algorithm{
		Label:   label,
		Outputs: []engine.SeriesSpec{{Label: label, Unit: "-", CI: true}},
		Run: func(ctx context.Context, inst *engine.Instance) (engine.CellResult, error) {
			res, err := solve(ctx, inst.Inst)
			if err != nil {
				return engine.CellResult{}, err
			}
			return engine.CellResult{
				Values:      []float64{res.Cost},
				Evaluations: res.Evaluations,
			}, nil
		},
	}
}

// ExtPlacement sweeps the charger-placement family over a grid of
// scenarios crossing the duty-cycle guarantee (mean per-post demand in
// mW) with the candidate-site density (the candidate grid's side). Three
// registered solvers run on identical instances: the family's native
// greedy construction, IDB seeding local search, and simulated annealing.
//
// The economics the sweep charts: tightening the duty-cycle guarantee
// raises cost superlinearly (each extra milliwatt needs chargers at less
// and less favourable sites), while denser candidate grids lower it
// (better sites exist to pick) with diminishing returns once sites
// blanket the field. Greedy tracks the refinement solvers closely on
// loose guarantees and falls behind on tight ones, where single-charger
// myopia misses cheaper multi-site covers.
func ExtPlacement(opts Options) (*Figure, error) {
	const (
		side  = 400.0
		posts = 40
	)
	demands := []float64{0.6, 1.2, 1.8}
	grids := []int{3, 5, 7}

	sw := &engine.Sweep{
		ID:       "ext-placement",
		Title:    "Extension: RF charger placement — cost vs duty-cycle guarantee and candidate density (400x400m, 40 posts)",
		XLabel:   "scenario index (demand mW x candidate grid)",
		YLabel:   "installed cost + shortfall penalty (site-cost units)",
		Seeds:    opts.seeds(6, 2),
		BaseSeed: opts.baseSeed(),
	}
	x := 0
	for _, demand := range demands {
		for _, grid := range grids {
			demand, grid := demand, grid
			x++
			spec := placement.DefaultSiteSpec()
			spec.Grid = grid
			sw.Points = append(sw.Points, engine.Point{
				X:     float64(x),
				Label: fmt.Sprintf("d=%.1fmW g=%dx%d", demand, grid, grid),
				Gen: placement.Generator(placement.GenSpec{
					Field:        geom.Square(side),
					Posts:        posts,
					Sites:        spec,
					DemandMean:   demand,
					DemandJitter: 0.4,
				}),
			})
		}
	}
	sw.Algorithms = []engine.Algorithm{
		instanceCostAlgorithm("greedy", engine.MustSolver("greedy")),
		instanceCostAlgorithm("IDB+local search", engine.MustSolver("idb-local-search")),
		instanceCostAlgorithm("anneal", engine.MustSolver("anneal")),
	}
	return runFigure(opts, sw)
}
