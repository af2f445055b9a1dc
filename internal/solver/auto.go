package solver

import (
	"context"

	"wrsn/internal/deploy"
	"wrsn/internal/model"
)

// Thresholds steering Auto's solver choice, expressed in units of inner
// evaluations (one Dijkstra each). They keep worst-case runtimes around a
// second on commodity hardware.
const (
	// autoExactLimit bounds the exhaustive deployment space for which the
	// branch-and-bound exact solver is attempted.
	autoExactLimit = 50_000
	// autoIDBLimit bounds IDB's total candidate evaluations
	// ((M-N) rounds x N candidates at delta = 1).
	autoIDBLimit = 500_000
	// autoPolishLimit bounds a LocalSearch pass (N^2 evaluations per
	// sweep) used to polish RFH on mid-size instances.
	autoPolishLimit = 40_000
)

// Auto solves inst with the strongest algorithm that fits it. The
// deployment problem is tiered by size:
//
//   - small instances (exhaustive space <= ~50k deployments) get the
//     exact branch-and-bound optimum;
//   - mid-size instances get IDB(δ=1), the paper's best heuristic;
//   - large instances get iterative RFH, polished by local search when a
//     hill-climbing sweep is still affordable.
//
// It never returns a worse deployment than iterative RFH. Other kinds
// get IDB's incremental growth polished by a local search seeded with
// its result (the hill climb only ever improves, so the polish is free
// insurance). The context flows into whichever solver runs, inheriting
// its cancellation cadence.
func Auto(ctx context.Context, inst model.Instance) (*Result, error) {
	p, ok := inst.(*model.Problem)
	if !ok {
		seed, err := IDB(ctx, inst, IDBOptions{Delta: 1})
		if err != nil {
			return nil, err
		}
		polished, err := LocalSearch(ctx, inst, LocalSearchOptions{Start: seed})
		if err != nil {
			return nil, err
		}
		polished.Evaluations += seed.Evaluations
		return polished, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, m := p.N(), p.Nodes

	if c := deploy.CountDeployments(n, m); c > 0 && c <= autoExactLimit {
		return Optimal(ctx, p, OptimalOptions{})
	}
	if idbEvals := int64(m-n) * int64(n); idbEvals <= autoIDBLimit {
		return IDB(ctx, p, IDBOptions{Delta: 1})
	}
	res, err := RFH(ctx, p, RFHOptions{Iterations: DefaultRFHIterations})
	if err != nil {
		return nil, err
	}
	if int64(n)*int64(n) <= autoPolishLimit {
		polished, err := LocalSearch(ctx, p, LocalSearchOptions{Start: res})
		if err != nil {
			return nil, err
		}
		if polished.Cost < res.Cost {
			return polished, nil
		}
	}
	return res, nil
}
