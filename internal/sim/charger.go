package sim

import (
	"errors"
	"fmt"
	"math"

	"wrsn/internal/geom"
	"wrsn/internal/tour"
)

// chargerState is the mobile charger's runtime: position, current target
// and per-round behaviour (travel, then charge).
type chargerState struct {
	cfg       ChargerConfig
	pos       geom.Point
	target    int   // post index being approached/charged; -1 when idle
	rrCursor  int   // next post to consider under PolicyRoundRobin
	route     []int // remaining planned stops under PolicyTour
	downUntil int   // broken down through this round (fault injection)
}

func newChargerState(cfg *ChargerConfig, p interface{ N() int }) (*chargerState, error) {
	if cfg.PowerPerRound <= 0 {
		return nil, fmt.Errorf("sim: charger power per round must be positive, got %g", cfg.PowerPerRound)
	}
	if cfg.SpeedPerRound <= 0 {
		return nil, fmt.Errorf("sim: charger speed per round must be positive, got %g", cfg.SpeedPerRound)
	}
	c := *cfg
	if c.FillToFrac <= 0 || c.FillToFrac > 1 {
		c.FillToFrac = 0.95
	}
	if c.TargetFrac <= 0 || c.TargetFrac >= c.FillToFrac {
		c.TargetFrac = math.Min(0.5, c.FillToFrac/2)
	}
	switch c.Policy {
	case "":
		c.Policy = PolicyUrgency
	case PolicyUrgency, PolicyRoundRobin, PolicyTour:
	default:
		return nil, fmt.Errorf("sim: unknown charger policy %q", c.Policy)
	}
	if p.N() == 0 {
		return nil, errors.New("sim: charger needs at least one post")
	}
	return &chargerState{cfg: c, target: -1}, nil
}

// step runs one charger round: pick/keep a target, travel toward it, and
// charge once on site.
func (c *chargerState) step(s *Simulator) {
	if c.target >= 0 && c.doneWith(s, c.target) {
		s.claimed[c.target] = false
		c.target = -1
	}
	if c.target < 0 {
		c.target = c.pickTarget(s)
		if c.target < 0 {
			return // nothing needs charge
		}
		s.claimed[c.target] = true
	}
	dest := s.p.Posts[c.target]
	dist := geom.Dist(c.pos, dest)
	if dist > 1e-9 {
		step := c.cfg.SpeedPerRound
		if step >= dist {
			c.pos = dest
			s.metrics.ChargerDistance += dist
			// Arrived mid-round; charging starts next round.
			return
		}
		c.pos = geom.Lerp(c.pos, dest, step/dist)
		s.metrics.ChargerDistance += step
		return
	}
	c.charge(s, c.target)
}

// doneWith reports whether the post no longer needs charging (all usable
// nodes at FillToFrac, or no usable nodes).
func (c *chargerState) doneWith(s *Simulator, post int) bool {
	count, minE, _ := s.posts[post].usableEnergy(s.metrics.Rounds)
	return count == 0 || minE/s.cfg.BatteryCapacity >= c.cfg.FillToFrac
}

// needsCharge reports whether an unclaimed post has a usable node below the
// target fraction, and returns its usable energy total.
func (c *chargerState) needsCharge(s *Simulator, post int) (bool, float64) {
	if s.claimed[post] {
		return false, 0
	}
	count, minE, sum := s.posts[post].usableEnergy(s.metrics.Rounds)
	return count > 0 && minE/s.cfg.BatteryCapacity < c.cfg.TargetFrac, sum
}

// pickTarget dispatches on the configured policy. Returns -1 when every
// post is comfortable.
func (c *chargerState) pickTarget(s *Simulator) int {
	switch c.cfg.Policy {
	case PolicyRoundRobin:
		return c.pickRoundRobin(s)
	case PolicyTour:
		return c.pickTour(s)
	default:
		return c.pickUrgent(s)
	}
}

// pickTour follows the planned route, replanning a fresh 2-opt tour over
// all below-target posts whenever the route runs dry.
func (c *chargerState) pickTour(s *Simulator) int {
	// Drain already-satisfied (or claimed-by-peers) stops from the
	// current route.
	for len(c.route) > 0 {
		next := c.route[0]
		c.route = c.route[1:]
		if !c.doneWith(s, next) && !s.claimed[next] {
			return next
		}
	}
	// Replan over every unclaimed post currently in need.
	var needy []int
	var stops []geom.Point
	for i := range s.posts {
		if ok, _ := c.needsCharge(s, i); ok {
			needy = append(needy, i)
			stops = append(stops, s.p.Posts[i])
		}
	}
	if len(needy) == 0 {
		return -1
	}
	plan, err := tour.PlanTour(c.pos, stops)
	if err != nil {
		return -1 // unreachable given non-empty stops; stay idle defensively
	}
	c.route = c.route[:0]
	for _, idx := range plan.Order {
		c.route = append(c.route, needy[idx])
	}
	next := c.route[0]
	c.route = c.route[1:]
	return next
}

// pickRoundRobin scans posts cyclically from the cursor and takes the
// first one below the target fraction.
func (c *chargerState) pickRoundRobin(s *Simulator) int {
	n := len(s.posts)
	for step := 0; step < n; step++ {
		i := (c.rrCursor + step) % n
		if ok, _ := c.needsCharge(s, i); ok {
			c.rrCursor = (i + 1) % n
			return i
		}
	}
	return -1
}

// pickUrgent selects the most urgent post: the one with the smallest
// projected time-to-empty (remaining alive energy divided by per-round
// drain), among posts below the target fraction.
func (c *chargerState) pickUrgent(s *Simulator) int {
	best := -1
	bestUrgency := math.Inf(1)
	for i := range s.posts {
		ok, remaining := c.needsCharge(s, i)
		if !ok {
			continue
		}
		drain := s.drain[i]
		if drain <= 0 {
			drain = 1e-12
		}
		urgency := remaining / drain // rounds until the post starves
		if urgency < bestUrgency {
			best, bestUrgency = i, urgency
		}
	}
	return best
}

// charge performs one round of charging at `post`. Dissemination y gives
// every alive node k(m)*eta/m ... — per the paper's model, each of the m
// co-located nodes receives eta per unit disseminated (network efficiency
// k(m)*eta with k(m)=m for the linear default). Generalised to the
// configured gain: per-node share is k(m)*eta/m per unit. The charger
// modulates its power so no energy is wasted on already-full batteries
// beyond per-node clipping.
func (c *chargerState) charge(s *Simulator, post int) {
	pp := &s.posts[post]
	round := s.metrics.Rounds
	usable := pp.UsableCount(round)
	if usable == 0 {
		return
	}
	effTotal, err := s.p.Charging.NetworkEfficiency(usable)
	if err != nil {
		return
	}
	perNodeEff := effTotal / float64(usable)
	// Largest per-node deficit determines the useful dissemination.
	capacity := s.cfg.BatteryCapacity
	maxDeficit := 0.0
	for j := range pp.Nodes {
		if !pp.Nodes[j].usableAt(round) {
			continue
		}
		if d := capacity - pp.Nodes[j].Energy; d > maxDeficit {
			maxDeficit = d
		}
	}
	y := math.Min(c.cfg.PowerPerRound, maxDeficit/perNodeEff)
	if y <= 0 {
		return
	}
	s.metrics.ChargerEnergy += y
	for j := range pp.Nodes {
		if !pp.Nodes[j].usableAt(round) {
			continue
		}
		gain := float64(y * perNodeEff)
		room := capacity - pp.Nodes[j].Energy
		if gain > room {
			s.metrics.ChargerWasted += gain - room // received-energy nJ that found no room
			gain = room
		}
		pp.Nodes[j].Energy += gain
		s.metrics.energyStored += gain
	}
	if c.doneWith(s, post) {
		s.metrics.ChargerVisits++
	}
}
