package solver

import (
	"context"

	"wrsn/internal/model"
)

// Greedy solves inst with the instance's own construction
// heuristic alone — the problem-family analogue of running bare RFH for
// deployment. Instances without a native heuristic (no
// model.SeedHeuristic implementation; the deployment problem is one,
// its constructor being RFH itself) are rejected with an
// UnsupportedError.
func Greedy(ctx context.Context, inst model.Instance) (*Result, error) {
	sh, ok := inst.(model.SeedHeuristic)
	if !ok {
		return nil, unsupported("greedy", inst)
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	vec, evaluations, err := sh.SeedSolution(ctx)
	if err != nil {
		return nil, err
	}
	return finishInstance(inst, vec, evaluations)
}
