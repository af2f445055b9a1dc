package placement

import (
	"fmt"
	"math/rand"

	"wrsn/internal/geom"
	"wrsn/internal/model"
)

// GenSpec parameterises Generate's random placement instances.
type GenSpec struct {
	// Field is the deployment area; posts scatter uniformly over it.
	Field geom.Field
	// Posts is the number of sensor posts.
	Posts int
	// Sites templates the candidate grid (Grid, per-charger cost, power,
	// radius) and the instance-wide Decay/Penalty/MaxPerSite.
	Sites SiteSpec
	// DemandMean is the mean per-post demand in mW; DemandJitter spreads
	// individual demands uniformly within ±DemandJitter·DemandMean.
	DemandMean   float64
	DemandJitter float64
}

// Generate draws a random charger-placement instance: posts uniform over
// the field, candidate sites on the spec's grid spanning the whole field,
// and jittered per-post demands. The rng fully determines the instance,
// so engine sweeps regenerate identical instances from identical seeds.
func Generate(rng *rand.Rand, gs GenSpec) (*Instance, error) {
	if gs.Posts < 1 {
		return nil, fmt.Errorf("placement: generate needs >= 1 post, got %d", gs.Posts)
	}
	if !(gs.DemandMean > 0) {
		return nil, fmt.Errorf("placement: generate needs positive mean demand, got %g", gs.DemandMean)
	}
	if gs.DemandJitter < 0 || gs.DemandJitter >= 1 {
		return nil, fmt.Errorf("placement: demand jitter %g must be in [0, 1)", gs.DemandJitter)
	}
	posts := gs.Field.RandomPoints(rng, gs.Posts)
	demand := make([]float64, gs.Posts)
	for i := range demand {
		// The conversion rounds Float64's inlined product, which would
		// otherwise fuse into the doubling below.
		u := float64(rng.Float64())
		demand[i] = gs.DemandMean * (1 + float64(gs.DemandJitter*(2*u-1)))
	}
	inst := &Instance{
		Posts:      posts,
		Sites:      GridSites(gs.Field.Corner(), geom.Point{X: gs.Field.Width, Y: gs.Field.Height}, gs.Sites),
		Demand:     demand,
		Penalty:    gs.Sites.Penalty,
		Decay:      gs.Sites.Decay,
		MaxPerSite: gs.Sites.MaxPerSite,
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// Generator adapts Generate to the engine's Generator shape for spec
// tables (returning the instance as a model.Instance).
func Generator(gs GenSpec) func(rng *rand.Rand) (model.Instance, error) {
	return func(rng *rand.Rand) (model.Instance, error) {
		return Generate(rng, gs)
	}
}
