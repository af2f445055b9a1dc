// Package placement defines the static RF charger-placement problem, the
// repo's second problem family behind the model.Instance seam.
//
// A field of sensor posts must be kept alive by RF chargers mounted at a
// fixed set of candidate sites (rooftops, poles — wherever mains power
// reaches). Each post i needs Demand[i] milliwatts of harvested power to
// sustain its duty cycle; a site j holding m chargers delivers m times
// its single-charger received power to every post within its coverage
// radius, falling off exponentially with distance exactly like the
// Powercast far-field measurements internal/charging models. The solution
// vector counts chargers per site (zero or more, no fixed total), and the
// objective charges every installed charger its site's cost plus a
// penalty proportional to each post's normalised duty-cycle shortfall:
//
//	cost(m) = sum_j m_j*Cost_j + Penalty * sum_i max(0, 1 - supply_i/Demand_i)
//
// With Penalty large relative to site costs the minimiser is the cheapest
// placement meeting every duty-cycle guarantee; smaller penalties trade
// coverage for budget. Unlike the deployment problem there is no routing
// subproblem — pricing a solution is pure arithmetic — which makes this
// family the cheap stress test for the problem-agnostic solver loops.
package placement

import (
	"fmt"
	"math"

	"wrsn/internal/geom"
	"wrsn/internal/model"
)

// Site is one candidate charger location.
type Site struct {
	// At is the site's position, in meters.
	At geom.Point
	// Cost is the price of installing one charger here (site rental,
	// cabling): the objective pays it once per charger.
	Cost float64
	// Power is the received power (mW) one charger at this site delivers
	// to a post at zero distance; it decays exponentially with distance
	// at the instance's Decay rate, matching charging.Lab's far-field
	// model.
	Power float64
	// Radius is the coverage cutoff (m): posts farther away receive
	// nothing, however many chargers the site holds.
	Radius float64
}

// Instance is one charger-placement problem: candidate sites, posts with
// duty-cycle power demands, and the shortfall penalty. It implements
// model.Instance with one solution dimension per site.
type Instance struct {
	// Posts are the sensor-post positions to keep powered.
	Posts []geom.Point
	// Sites are the candidate charger sites (the solution dimensions).
	Sites []Site
	// Demand is each post's required received power in mW, derived from
	// its report rate (see DemandFromRates).
	Demand []float64
	// Penalty is the objective cost of one post fully unpowered; partial
	// shortfalls pay proportionally. Must be positive.
	Penalty float64
	// Decay is the exponential path-loss rate (per meter) shared by all
	// sites, as in charging.Lab.
	Decay float64
	// MaxPerSite caps the chargers one site can hold (the per-dimension
	// upper bound). Must be >= 1.
	MaxPerSite int
}

// Validate checks the instance's structural invariants.
func (inst *Instance) Validate() error {
	if len(inst.Posts) == 0 {
		return fmt.Errorf("placement: instance has no posts")
	}
	if len(inst.Sites) == 0 {
		return fmt.Errorf("placement: instance has no candidate sites")
	}
	if len(inst.Demand) != len(inst.Posts) {
		return fmt.Errorf("placement: %d demands for %d posts", len(inst.Demand), len(inst.Posts))
	}
	for i, d := range inst.Demand {
		if !(d > 0) || math.IsInf(d, 0) {
			return fmt.Errorf("placement: post %d has invalid demand %g (want positive finite mW)", i, d)
		}
	}
	for j, s := range inst.Sites {
		switch {
		case !(s.Cost > 0) || math.IsInf(s.Cost, 0):
			return fmt.Errorf("placement: site %d has invalid cost %g", j, s.Cost)
		case !(s.Power > 0) || math.IsInf(s.Power, 0):
			return fmt.Errorf("placement: site %d has invalid power %g", j, s.Power)
		case !(s.Radius > 0) || math.IsInf(s.Radius, 0):
			return fmt.Errorf("placement: site %d has invalid radius %g", j, s.Radius)
		}
	}
	if !(inst.Penalty > 0) || math.IsInf(inst.Penalty, 0) {
		return fmt.Errorf("placement: invalid shortfall penalty %g", inst.Penalty)
	}
	if inst.Decay < 0 || math.IsNaN(inst.Decay) || math.IsInf(inst.Decay, 0) {
		return fmt.Errorf("placement: invalid decay rate %g", inst.Decay)
	}
	if inst.MaxPerSite < 1 {
		return fmt.Errorf("placement: MaxPerSite %d must be >= 1", inst.MaxPerSite)
	}
	return model.CheckInstanceBounds(inst)
}

// Kind returns model.KindPlacement.
func (inst *Instance) Kind() string { return model.KindPlacement }

// Dims returns the solution-vector length: one dimension per site.
func (inst *Instance) Dims() int { return len(inst.Sites) }

// LowerBound returns 0: a site may hold no chargers.
func (inst *Instance) LowerBound(int) int { return 0 }

// UpperBound returns the per-site charger cap.
func (inst *Instance) UpperBound(int) int { return inst.MaxPerSite }

// FixedTotal returns (0, false): any charger count is a solution.
func (inst *Instance) FixedTotal() (int, bool) { return 0, false }

// ValidateSolution checks m's length and per-site bounds.
func (inst *Instance) ValidateSolution(m []int) error {
	if len(m) != len(inst.Sites) {
		return fmt.Errorf("placement: solution has %d counts for %d sites", len(m), len(inst.Sites))
	}
	for j, v := range m {
		if v < 0 || v > inst.MaxPerSite {
			return fmt.Errorf("placement: site %d holds %d chargers (want 0..%d)", j, v, inst.MaxPerSite)
		}
	}
	return nil
}

// EncodeSolution renders m as comma-separated per-site counts.
func (inst *Instance) EncodeSolution(m []int) string { return model.EncodeCounts(m) }

// received returns the power (mW) one charger at site j delivers to a
// post at distance d: exponential falloff inside the radius, zero beyond.
func (inst *Instance) received(j int, d float64) float64 {
	s := inst.Sites[j]
	if d > s.Radius {
		return 0
	}
	return s.Power * math.Exp(-inst.Decay*d)
}

// DemandFromRates derives per-post power demands from a deployment
// problem's report rates: a post reporting r bits per round needs
// perRate*r milliwatts to sustain that duty cycle (and never less than a
// tenth of perRate, so relay-only posts still need their radios powered).
// This is the bridge between the two problem families — the same traffic
// profile that shapes the routing tree shapes where chargers pay off.
func DemandFromRates(p *model.Problem, perRate float64) []float64 {
	demand := make([]float64, p.N())
	floor := perRate / 10
	for i := range demand {
		d := perRate * p.Rate(i)
		if d < floor {
			d = floor
		}
		demand[i] = d
	}
	return demand
}

// SiteSpec parameterises FromProblem's candidate grid.
type SiteSpec struct {
	// Grid lays Grid x Grid candidate sites evenly over the posts'
	// bounding box (>= 2).
	Grid int
	// Cost, Power, Radius template every site; Decay, Penalty and
	// MaxPerSite fill the instance fields of the same names.
	Cost, Power, Radius float64
	Decay, Penalty      float64
	MaxPerSite          int
}

// DefaultSiteSpec mirrors the Powercast-class numbers in
// charging.DefaultLab: ~3 W transmitters whose received power decays a
// few percent per centimeter, priced so one charger costs 1 unit.
func DefaultSiteSpec() SiteSpec {
	return SiteSpec{
		Grid:       4,
		Cost:       1,
		Power:      3.0,  // mW received at the site itself
		Radius:     150,  // m
		Decay:      0.01, // per meter
		Penalty:    100,
		MaxPerSite: 8,
	}
}

// FromProblem builds a charger-placement instance over a deployment
// problem's posts: candidate sites on a Grid x Grid lattice spanning the
// posts' bounding box, demands derived from the problem's report rates.
func FromProblem(p *model.Problem, perRate float64, spec SiteSpec) (*Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if spec.Grid < 2 {
		return nil, fmt.Errorf("placement: site grid %d must be >= 2", spec.Grid)
	}
	lo, hi := geom.BoundingBox(p.Posts)
	inst := &Instance{
		Posts:      append([]geom.Point(nil), p.Posts...),
		Sites:      GridSites(lo, hi, spec),
		Demand:     DemandFromRates(p, perRate),
		Penalty:    spec.Penalty,
		Decay:      spec.Decay,
		MaxPerSite: spec.MaxPerSite,
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// GridSites lays spec.Grid x spec.Grid sites evenly over the [lo, hi]
// box, each templated from spec.
func GridSites(lo, hi geom.Point, spec SiteSpec) []Site {
	k := spec.Grid
	sites := make([]Site, 0, k*k)
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			t := geom.Point{
				X: float64(c) / float64(k-1),
				Y: float64(r) / float64(k-1),
			}
			sites = append(sites, Site{
				At:     geom.Point{X: lo.X + float64(t.X*(hi.X-lo.X)), Y: lo.Y + float64(t.Y*(hi.Y-lo.Y))},
				Cost:   spec.Cost,
				Power:  spec.Power,
				Radius: spec.Radius,
			})
		}
	}
	return sites
}
