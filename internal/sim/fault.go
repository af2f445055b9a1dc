package sim

import (
	"fmt"
	"math"
	"sort"

	"wrsn/internal/geom"
)

// FaultKind identifies one class of injectable fault.
type FaultKind string

const (
	// FaultKillNode permanently kills one alive node at the event's post
	// (the node with the most residual energy, so repeated events strip a
	// post deterministically).
	FaultKillNode FaultKind = "kill-node"
	// FaultKillPost permanently kills every node at the event's post.
	FaultKillPost FaultKind = "kill-post"
	// FaultTransientNode takes one alive node at the event's post offline
	// for Duration rounds, after which it recovers with its battery intact.
	FaultTransientNode FaultKind = "transient-node"
	// FaultChargerDown takes the event's charger out of service for
	// Duration rounds; it drops its current target and resumes from its
	// breakdown position afterwards.
	FaultChargerDown FaultKind = "charger-down"
)

// FaultEvent is one deterministic fault: after round Round's reporting
// phase completes, the fault fires.
type FaultEvent struct {
	// Round is the 1-based reporting round after which the event fires.
	Round int
	// Kind selects the fault class.
	Kind FaultKind
	// Post is the target post for node/post faults.
	Post int
	// Charger is the target charger index for FaultChargerDown.
	Charger int
	// Duration is the outage length in rounds for transient and charger
	// faults.
	Duration int
}

// FaultSchedule is a list of deterministic fault events. The simulator
// sorts it by round (stable) at construction, so callers may list events
// in any order. Schedules make chaos tests reproducible: the same
// schedule always produces the same failure sequence, independent of the
// stochastic fault knobs.
type FaultSchedule []FaultEvent

// validate checks every event against the network shape.
func (fs FaultSchedule) validate(nPosts, nChargers int) error {
	for i, ev := range fs {
		if ev.Round < 1 {
			return fmt.Errorf("sim: fault %d fires at round %d; rounds are 1-based", i, ev.Round)
		}
		switch ev.Kind {
		case FaultKillNode, FaultKillPost:
			if ev.Post < 0 || ev.Post >= nPosts {
				return fmt.Errorf("sim: fault %d targets post %d of %d", i, ev.Post, nPosts)
			}
		case FaultTransientNode:
			if ev.Post < 0 || ev.Post >= nPosts {
				return fmt.Errorf("sim: fault %d targets post %d of %d", i, ev.Post, nPosts)
			}
			if ev.Duration < 1 {
				return fmt.Errorf("sim: transient fault %d needs a positive duration, got %d", i, ev.Duration)
			}
		case FaultChargerDown:
			if ev.Charger < 0 || ev.Charger >= nChargers {
				return fmt.Errorf("sim: fault %d targets charger %d of %d", i, ev.Charger, nChargers)
			}
			if ev.Duration < 1 {
				return fmt.Errorf("sim: charger fault %d needs a positive duration, got %d", i, ev.Duration)
			}
		default:
			return fmt.Errorf("sim: fault %d has unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// FaultConfig is the pluggable fault-injection engine's configuration.
// All stochastic knobs draw from the simulation's seeded RNG, so runs are
// bit-identical for a fixed seed; Schedule adds deterministic events on
// top. The zero value injects nothing.
type FaultConfig struct {
	// NodeFailurePerRound is the per-node per-round Bernoulli probability
	// of a permanent failure.
	NodeFailurePerRound float64
	// TransientPerRound is the per-node per-round Bernoulli probability of
	// a transient failure: the node goes offline for an exponentially
	// distributed number of rounds (mean TransientMeanRounds) and then
	// recovers with its battery intact.
	TransientPerRound float64
	// TransientMeanRounds is the mean transient outage length in rounds
	// (default 50).
	TransientMeanRounds float64
	// PostOutagePerRound is the per-round probability of one spatially
	// correlated outage: a uniformly random post is struck and every node
	// at posts within OutageRadius meters of it (including the struck
	// post) fails permanently — a lightning strike, flood or vandalism
	// model.
	PostOutagePerRound float64
	// OutageRadius is the blast radius in meters for correlated outages
	// (0 confines the outage to the struck post alone).
	OutageRadius float64
	// ChargerFailurePerRound is the per-charger per-round probability of a
	// breakdown taking the charger out of service for ChargerRepairRounds.
	ChargerFailurePerRound float64
	// ChargerRepairRounds is how long a broken charger stays out of
	// service (default 200).
	ChargerRepairRounds int
	// Schedule lists deterministic fault events, applied in addition to
	// (and before) the stochastic draws of the same round.
	Schedule FaultSchedule
}

// validate checks the stochastic knobs' ranges and the schedule.
func (fc *FaultConfig) validate(nPosts, nChargers int) error {
	probs := []struct {
		name string
		v    float64
	}{
		{"NodeFailurePerRound", fc.NodeFailurePerRound},
		{"TransientPerRound", fc.TransientPerRound},
		{"PostOutagePerRound", fc.PostOutagePerRound},
		{"ChargerFailurePerRound", fc.ChargerFailurePerRound},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return fmt.Errorf("sim: %s %g outside [0, 1]", p.name, p.v)
		}
	}
	if fc.TransientMeanRounds < 0 || math.IsNaN(fc.TransientMeanRounds) || math.IsInf(fc.TransientMeanRounds, 0) {
		return fmt.Errorf("sim: TransientMeanRounds %g must be finite and non-negative", fc.TransientMeanRounds)
	}
	if fc.OutageRadius < 0 || math.IsNaN(fc.OutageRadius) || math.IsInf(fc.OutageRadius, 0) {
		return fmt.Errorf("sim: OutageRadius %g must be finite and non-negative", fc.OutageRadius)
	}
	if fc.ChargerRepairRounds < 0 {
		return fmt.Errorf("sim: ChargerRepairRounds %d must be non-negative", fc.ChargerRepairRounds)
	}
	if fc.ChargerFailurePerRound > 0 && nChargers == 0 {
		return fmt.Errorf("sim: ChargerFailurePerRound set but no charger configured")
	}
	return fc.Schedule.validate(nPosts, nChargers)
}

// active reports whether any fault source is configured.
func (fc *FaultConfig) active() bool {
	return fc.NodeFailurePerRound > 0 || fc.TransientPerRound > 0 ||
		fc.PostOutagePerRound > 0 || fc.ChargerFailurePerRound > 0 ||
		len(fc.Schedule) > 0
}

// faultEngine drives fault injection for one run: a cursor over the
// sorted schedule plus the stochastic hazards. Each hazard is a per-round
// Bernoulli process, realised by sampling its next onset round
// (geometric inversion) into a pending min-heap, so fault-free rounds
// carry no per-round cost and the event horizon can peek at the next
// onset. Both cores fire the same heap through the same step() and draw
// the same RNG stream, so a seed yields one realisation whichever core
// runs it.
type faultEngine struct {
	cfg    FaultConfig
	sorted FaultSchedule // schedule sorted by round (stable)
	cursor int

	pending []pendingFault // min-heap ordered by pendingFault.before
}

// Same-round onsets fire in a fixed order — permanents, then transients,
// then the outage, then chargers, each in ascending (post, node) order —
// so the heap orders by (round, rank, post, node).
const (
	rankPermanent = iota
	rankTransient
	rankOutage
	rankCharger
)

// pendingFault is one scheduled stochastic onset. post doubles as the
// charger index for rankCharger events and is -1 for the outage event.
type pendingFault struct {
	round int
	rank  int8
	post  int
	node  int
}

func (a pendingFault) before(b pendingFault) bool {
	if a.round != b.round {
		return a.round < b.round
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.post != b.post {
		return a.post < b.post
	}
	return a.node < b.node
}

func (e *faultEngine) push(f pendingFault) {
	e.pending = append(e.pending, f)
	i := len(e.pending) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.pending[i].before(e.pending[parent]) {
			break
		}
		e.pending[i], e.pending[parent] = e.pending[parent], e.pending[i]
		i = parent
	}
}

func (e *faultEngine) pop() pendingFault {
	top := e.pending[0]
	last := len(e.pending) - 1
	e.pending[0] = e.pending[last]
	e.pending = e.pending[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(e.pending) && e.pending[l].before(e.pending[min]) {
			min = l
		}
		if r < len(e.pending) && e.pending[r].before(e.pending[min]) {
			min = r
		}
		if min == i {
			return top
		}
		e.pending[i], e.pending[min] = e.pending[min], e.pending[i]
		i = min
	}
}

// geo samples the number of Bernoulli(p) rounds up to and including the
// first success, by inverting the geometric CDF with one uniform draw.
func (e *faultEngine) geo(s *Simulator, p float64) int {
	if p >= 1 {
		return 1
	}
	// The conversion keeps arm64 from fusing Float64's scaling into the
	// subtraction.
	g := math.Log(1-float64(s.rng.Float64())) / math.Log(1-p)
	if g > 1e15 { // log(1-u) hit -Inf, or p is denormal-tiny
		return 1 << 50
	}
	return 1 + int(g)
}

// newFaultEngine applies the config's defaults, sorts the schedule and
// seeds the heap with every hazard's first onset. The draw order is fixed
// — permanents in (post, node) order, then transients, the outage
// process, then chargers — so a given seed always yields the same
// realisation. The simulator's posts and chargers must exist.
func newFaultEngine(s *Simulator, cfg FaultConfig) *faultEngine {
	if cfg.TransientMeanRounds == 0 {
		cfg.TransientMeanRounds = 50
	}
	if cfg.ChargerRepairRounds == 0 {
		cfg.ChargerRepairRounds = 200
	}
	sorted := append(FaultSchedule(nil), cfg.Schedule...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Round < sorted[b].Round })
	e := &faultEngine{cfg: cfg, sorted: sorted}
	if p := cfg.NodeFailurePerRound; p > 0 {
		for i := range s.posts {
			for j := range s.posts[i].Nodes {
				e.push(pendingFault{e.geo(s, p), rankPermanent, i, j})
			}
		}
	}
	if p := cfg.TransientPerRound; p > 0 {
		for i := range s.posts {
			for j := range s.posts[i].Nodes {
				e.push(pendingFault{e.geo(s, p), rankTransient, i, j})
			}
		}
	}
	if p := cfg.PostOutagePerRound; p > 0 {
		e.push(pendingFault{e.geo(s, p), rankOutage, -1, -1})
	}
	if p := cfg.ChargerFailurePerRound; p > 0 {
		for idx := range s.chargers {
			e.push(pendingFault{e.geo(s, p), rankCharger, idx, -1})
		}
	}
	return e
}

// nextScheduled returns the round of the next scheduled event, or 0 when
// the schedule is exhausted.
func (e *faultEngine) nextScheduled() int {
	if e.cursor < len(e.sorted) {
		return e.sorted[e.cursor].Round
	}
	return 0
}

// nextSampled returns the earliest pending sampled onset round, or 0 when
// none is pending.
func (e *faultEngine) nextSampled() int {
	if len(e.pending) > 0 {
		return e.pending[0].round
	}
	return 0
}

// step fires every fault due at the given round: scheduled events first,
// then the sampled onsets in heap order, rescheduling the recurring
// hazards. Permanents never re-fire on dead nodes (the stale event is
// discarded), transients are suppressed while the node is already down
// and resume drawing after DownUntil, and chargers resume drawing after
// their repair completes — the Bernoulli processes' own suppression rules.
func (e *faultEngine) step(s *Simulator, round int) {
	for e.cursor < len(e.sorted) && e.sorted[e.cursor].Round <= round {
		e.apply(s, round, e.sorted[e.cursor])
		e.cursor++
	}
	for len(e.pending) > 0 && e.pending[0].round <= round {
		ev := e.pop()
		switch ev.rank {
		case rankPermanent:
			s.killNode(ev.post, ev.node) // no-op if already dead
		case rankTransient:
			nd := &s.posts[ev.post].Nodes[ev.node]
			if !nd.Alive {
				break // permanent death ends the process
			}
			if nd.DownUntil < round {
				e.takeDown(s, ev.post, ev.node, round, e.drawOutage(s))
			}
			next := round
			if nd.DownUntil > next {
				next = nd.DownUntil
			}
			e.push(pendingFault{next + e.geo(s, e.cfg.TransientPerRound), rankTransient, ev.post, ev.node})
		case rankOutage:
			e.strike(s, s.rng.Intn(s.p.N()))
			e.push(pendingFault{round + e.geo(s, e.cfg.PostOutagePerRound), rankOutage, -1, -1})
		case rankCharger:
			ch := s.chargers[ev.post]
			if ch.downUntil < round {
				e.breakCharger(s, ev.post, round, e.cfg.ChargerRepairRounds)
			}
			next := round
			if ch.downUntil > next {
				next = ch.downUntil
			}
			e.push(pendingFault{next + e.geo(s, e.cfg.ChargerFailurePerRound), rankCharger, ev.post, -1})
		}
	}
}

// apply fires one scheduled event.
func (e *faultEngine) apply(s *Simulator, round int, ev FaultEvent) {
	switch ev.Kind {
	case FaultKillNode:
		if j := s.posts[ev.Post].aliveMaxEnergy(); j >= 0 {
			s.killNode(ev.Post, j)
		}
	case FaultKillPost:
		for j := range s.posts[ev.Post].Nodes {
			if s.posts[ev.Post].Nodes[j].Alive {
				s.killNode(ev.Post, j)
			}
		}
	case FaultTransientNode:
		// Target a usable node so stacked same-round events take down
		// distinct nodes rather than re-striking one already offline.
		if j := s.posts[ev.Post].usableMaxEnergy(round); j >= 0 {
			e.takeDown(s, ev.Post, j, round, ev.Duration)
		}
	case FaultChargerDown:
		if ev.Charger < len(s.chargers) {
			e.breakCharger(s, ev.Charger, round, ev.Duration)
		}
	}
}

// drawOutage samples a transient outage length: exponential with the
// configured mean, rounded up to at least one round.
func (e *faultEngine) drawOutage(s *Simulator) int {
	d := int(math.Ceil(s.rng.ExpFloat64() * e.cfg.TransientMeanRounds))
	if d < 1 {
		d = 1
	}
	return d
}

// takeDown marks a node transiently offline for `rounds` rounds starting
// after the current one.
func (e *faultEngine) takeDown(s *Simulator, post, node, round, rounds int) {
	s.posts[post].Nodes[node].DownUntil = round + rounds
	s.metrics.TransientFaults++
	s.touch(post)
}

// strike fires one correlated outage centred on the given post: every
// node at posts within OutageRadius fails permanently.
func (e *faultEngine) strike(s *Simulator, centre int) {
	c := s.p.Posts[centre]
	for i := range s.posts {
		if geom.Dist(c, s.p.Posts[i]) > e.cfg.OutageRadius && i != centre {
			continue
		}
		for j := range s.posts[i].Nodes {
			if s.posts[i].Nodes[j].Alive {
				s.killNode(i, j)
			}
		}
	}
	s.metrics.CorrelatedOutages++
}

// breakCharger takes a charger out of service through round+rounds. The
// charger releases its claim so fleet peers can cover for it.
func (e *faultEngine) breakCharger(s *Simulator, idx, round, rounds int) {
	ch := s.chargers[idx]
	ch.downUntil = round + rounds
	if ch.target >= 0 {
		s.claimed[ch.target] = false
		ch.target = -1
	}
	ch.route = ch.route[:0]
	s.metrics.ChargerBreakdowns++
}
