package sim

import (
	"context"
	"math"

	"wrsn/internal/geom"
)

// StepperKind selects the simulation core.
type StepperKind string

const (
	// StepperAuto (the zero value) picks the event-driven core whenever
	// the configuration is eligible and falls back to the per-round
	// stepper otherwise. Eligibility is LinkLossProb == 0: lossy links
	// draw randomness per report per round, which cannot be fast-forwarded.
	StepperAuto StepperKind = ""
	// StepperEvent demands the event-driven core; New rejects ineligible
	// configurations instead of silently degrading.
	StepperEvent StepperKind = "event"
	// StepperExact forces the per-round reference stepper — the
	// differential oracle the event core is tested against.
	StepperExact StepperKind = "exact"
)

// The event-driven core advances the simulation span by span instead of
// round by round. A span is a maximal run of homogeneous rounds: no
// fault fires, no repair lands, no transient recovers, no post starves
// and no charger changes behaviour (finishes travelling, charges, or
// picks a target). Within a span every round moves the same reports,
// burns the same per-post energies and leaves every decision — rotation
// argmax, flow, charger branch — on the same code path, so the core
// replays only the mutations that matter (per-round counters, one
// battery payment per operational post, charger travel arithmetic) and
// skips the per-round decision logic entirely: flow recomputation,
// fault draws and the chargers' O(posts × nodes) target scans.
//
// Bit-identity with the per-round stepper is by construction, not by
// tolerance: the replayed mutations are the stepper's own float
// operations in the stepper's own order (see step()'s round-sum network
// energy), integer counters advance by per-round constants, and every
// round whose behaviour could differ — an event round — is executed by
// the very same step() the exact core uses. Stochastic hazards are the
// one intentional divergence: the event core converts per-round
// Bernoulli draws into sampled next-event times (geometric inversion,
// fault.go), which preserves the distribution and per-seed determinism
// but not the exact-core realisation. Configurations without stochastic
// knobs (fault-free or scheduled faults only) never touch the RNG in
// either core and match bit-for-bit.
//
// Span lengths come from conservative horizons. The starvation bound
// uses that an operational post pays exactly `need` per round out of its
// usable pool and that the rotation's max node holds at least the pool
// mean. The idle-charger bound counts whole payments: the rotation
// always pays the post's fullest node, so a post's nodes above a floor F
// just over the charger's target absorb sum_j floor((e_j - F)/need)
// payments before any node below F can be the max — and only then can a
// payment push a node under the target (idleHorizon has the proof).
// Every bound keeps two rounds of slack for float drift (ulp-scale per
// round, many orders below `need`). Charger travel uses dist/speed with
// the same slack and additionally detects the arrival branch during
// replay, ending the span early. An underestimated horizon only ends a
// span sooner; the event round always runs through step().
//
// Tracers see every round: a reduced round leaves the simulator's
// observable state (metrics, batteries, charger positions) exactly as
// the stepper would, so Observe fires per round in both cores and trace
// output is bit-identical. Observation cost itself is not skipped — a
// tracer that scans the network every round bounds the speedup, not the
// span.

// CoreStats counts how a simulator's rounds were executed. It is kept out
// of Metrics on purpose: Metrics is the simulation's outcome, identical
// across cores, while CoreStats describes the core that produced it.
type CoreStats struct {
	Spans         int64 // fast-forwarded spans (event core only)
	ReducedRounds int64 // rounds replayed inside those spans
	EventRounds   int64 // rounds executed by the per-round step()
}

// CoreStats returns the cumulative execution counters. Under the exact
// core every round is an event round. Horizon computations in the event
// core number Spans + EventRounds.
func (s *Simulator) CoreStats() CoreStats { return s.core }

// spanState is the per-span flow snapshot: the per-round deltas every
// reduced round applies, plus the derived per-post data the horizon
// bounds need. All slices are persistent buffers.
type spanState struct {
	delivered int64   // reports delivered per round
	lost      int64   // reports lost per round
	starved   int64   // starved post-rounds per round
	ne        float64 // network energy per round, in the stepper's summation order

	need   []float64 // per-post cost of one operational round
	op     []bool    // post pays and forwards this span
	opList []int     // operational posts in topological order
	usable [][]int   // per-post usable node indices, ascending
	maxE   []float64 // max usable energy at span start (-1 when none usable)
	sumE   []float64 // total usable energy at span start
}

func (sp *spanState) init(n int) {
	sp.need = make([]float64, n)
	sp.op = make([]bool, n)
	sp.opList = make([]int, 0, n)
	sp.usable = make([][]int, n)
	sp.maxE = make([]float64, n)
	sp.sumE = make([]float64, n)
}

// runEvent is the event core's driver: compute the span ahead, fast-
// forward its reduced rounds, then let step() execute the event round
// exactly. Every iteration consumes at least one round.
func (s *Simulator) runEvent(ctx context.Context, rounds int) error {
	done := 0
	for done < rounds {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.computeSpan()
		if l := s.spanLength(rounds - done); l > 0 {
			k := s.fastForward(l)
			s.core.Spans++
			s.core.ReducedRounds += int64(k)
			done += k
			continue
		}
		s.step()
		s.core.EventRounds++
		done++
	}
	return nil
}

// computeSpan dry-runs the next round's reporting flow without mutating
// any state: which posts operate, what each pays, and the per-round
// report deltas. The arithmetic mirrors step()'s lossless path exactly —
// same iteration order, same float expressions — so the resulting
// per-round sums are the ones the stepper itself would produce on every
// round of the span.
func (s *Simulator) computeSpan() {
	sp := &s.span
	n := s.p.N()
	round := s.metrics.Rounds + 1 // the round about to execute
	arrived := s.arrived
	for i := range arrived {
		arrived[i] = 0
	}
	for i := 0; i < n; i++ {
		u := sp.usable[i][:0]
		nodes := s.posts[i].Nodes
		maxE, sumE := -1.0, 0.0
		for j := range nodes {
			if nodes[j].usableAt(round) {
				u = append(u, j)
				e := nodes[j].Energy
				sumE += e
				if e > maxE {
					maxE = e
				}
			}
		}
		sp.usable[i], sp.maxE[i], sp.sumE[i] = u, maxE, sumE
	}
	sp.delivered, sp.lost, sp.starved, sp.ne = 0, 0, 0, 0
	sp.opList = sp.opList[:0]
	overheadBits := float64(s.cfg.PacketBits)
	for _, i := range s.order {
		carry := arrived[i] + 1
		rxCost := float64(arrived[i]) * s.perRx[i]
		txCost := float64(carry) * s.perTx[i]
		need := rxCost + txCost + s.p.Overhead(i)*overheadBits
		sp.need[i] = need
		// Operational iff the stepper's usableMaxEnergy node covers the
		// need: maxE is that node's energy (same strict-> scan).
		op := len(sp.usable[i]) > 0 && !(sp.maxE[i] < need)
		sp.op[i] = op
		if !op {
			sp.starved++
			sp.lost += carry
			continue
		}
		sp.ne += need
		sp.opList = append(sp.opList, i)
		if par := s.tree.Parent[i]; par < n {
			arrived[par] += carry
		} else {
			sp.delivered += carry
		}
	}
}

// spanLength returns how many reduced rounds are certified homogeneous,
// capped at maxL. 0 means the next round must run through step() — an
// event is due or a charger is mid-decision.
func (s *Simulator) spanLength(maxL int) int {
	r0 := s.metrics.Rounds
	l := maxL

	// A pending repair lands at repairApplyAfter+1.
	if s.repairPending {
		if h := s.repairApplyAfter - r0; h < l {
			l = h
		}
		if l <= 0 {
			return 0
		}
	}

	// Fault events: the next scheduled entry or sampled stochastic event.
	if s.faults != nil {
		if next := s.faults.nextEventRound(); next > 0 {
			if h := next - r0 - 1; h < l {
				l = h
			}
		}
		if l <= 0 {
			return 0
		}
	}

	// Transient recoveries re-enable nodes at DownUntil+1, changing the
	// usable sets, rotation and charger views.
	if s.everDown {
		seen := false
		for i := range s.posts {
			nodes := s.posts[i].Nodes
			for j := range nodes {
				if du := nodes[j].DownUntil; du > r0 {
					seen = true
					if h := du - r0; h < l {
						l = h
					}
				}
			}
		}
		if !seen {
			s.everDown = false // every outage has expired; stop scanning
		}
		if l <= 0 {
			return 0
		}
	}

	// Starvation: an operational post pays exactly `need` per round out
	// of its usable pool, and while the pool holds at least m·need the
	// rotation's max node must hold at least `need` (the max is at least
	// the mean), so floor(sum/need) - m - 2 rounds cannot starve it (the
	// slack absorbs float drift).
	sp := &s.span
	for _, i := range sp.opList {
		need := sp.need[i]
		if need <= 0 {
			continue
		}
		m := len(sp.usable[i])
		if q := sp.sumE[i] / need; q < float64(l+m)+3 {
			b := int(q) - m - 2
			if b < l {
				l = b
			}
			if l <= 0 {
				return 0
			}
		}
	}

	// Chargers: down, certified travelling or certified idle.
	for _, c := range s.chargers {
		if h := s.chargerHorizon(c, r0); h < l {
			l = h
		}
		if l <= 0 {
			return 0
		}
	}
	return l
}

// chargerHorizon returns how many reduced rounds this charger's
// behaviour is certified constant: counting down-rounds, travelling
// without arriving, or staying idle because no unclaimed post can
// become needy yet.
func (s *Simulator) chargerHorizon(c *chargerState, r0 int) int {
	if c.downUntil > r0 {
		return c.downUntil - r0
	}
	if c.cfg.StartAt == nil {
		return 0 // first step initialises the position: run it exactly
	}
	if c.target >= 0 {
		if c.doneWith(s, c.target) {
			return 0 // releases and re-picks next round
		}
		dist := geom.Dist(c.pos, s.p.Posts[c.target])
		if dist <= 1e-9 {
			return 0 // parked: every charging round is an event round
		}
		// Travelling covers exactly SpeedPerRound per round; the target
		// stays claimed and (monotonically) not done. Arrival is an
		// event; the replay additionally detects it defensively.
		b := int(dist/c.cfg.SpeedPerRound) - 2
		if b < 0 {
			b = 0
		}
		return b
	}
	return s.idleHorizon(c)
}

// idleHorizon bounds how long every unclaimed usable post stays at or
// above the charger's target fraction, so an idle charger's per-round
// pickTarget keeps returning -1.
//
// The bound counts whole payments. Put a floor F a hair above the target
// energy and give each usable node above it floor((e_j - F)/need)
// payments; q is the post's total. The rotation pays the post's fullest
// node every round, and while fewer than q payments have been made some
// node still holds at least F + need (a node paid fewer than its share
// does), so the max does too: every payment lands on a node that stays
// at or above F. A node below F is paid only when it is the max, which
// needs every node below F + need first — at least q payments. So for q
// rounds no node falls below F, and nodes already in [target, F) are
// never touched. The hair (relative 1e-9) absorbs the ulp-scale drift of
// repeated `Energy -= need`, the epsilon inside the floor keeps a ratio
// that rounds up to an integer from granting an extra payment, and two
// more rounds of slack match the other bounds. Frozen posts (starved or
// free) never move in-span.
func (s *Simulator) idleHorizon(c *chargerState) int {
	sp := &s.span
	capacity := s.cfg.BatteryCapacity
	round := s.metrics.Rounds + 1 // the round whose pickTarget is certified
	floorE := c.cfg.TargetFrac * capacity * (1 + 1e-9)
	best := int(^uint(0) >> 1)
	for i := range s.posts {
		if len(sp.usable[i]) == 0 || s.claimed[i] {
			continue
		}
		// pickTarget's own predicate: a post needy now stays needy.
		if s.posts[i].minEnergyFrac(capacity, round) < c.cfg.TargetFrac {
			return 0
		}
		need := sp.need[i]
		if !sp.op[i] || need <= 0 {
			continue // frozen post: its batteries never move in-span
		}
		nodes := s.posts[i].Nodes
		q := 0.0
		for _, j := range sp.usable[i] {
			if e := nodes[j].Energy; e > floorE {
				q += math.Floor((e - floorE) / need * (1 - 1e-9))
			}
		}
		// Compare in float: best starts at MaxInt.
		if q < float64(best)+2 {
			b := int(q) - 2
			if b < 0 {
				b = 0
			}
			if b < best {
				best = b
			}
			if best == 0 {
				return 0
			}
		}
	}
	return best
}

// fastForward replays up to l reduced rounds and returns how many it
// executed (fewer only when a charger arrived early and the span had to
// end). Each reduced round applies exactly the state mutations step()
// would: per-round counters, one rotation payment per operational post,
// charger down-counting or travel, then the tracer.
func (s *Simulator) fastForward(l int) int {
	sp := &s.span
	bits := int64(s.cfg.PacketBits)
	consumed := 0
	for k := 0; k < l; k++ {
		s.metrics.Rounds++
		round := s.metrics.Rounds
		s.metrics.ReportsDelivered += sp.delivered
		s.metrics.BitsDelivered += sp.delivered * bits
		if sp.lost > 0 {
			s.metrics.ReportsLost += sp.lost
			if s.metrics.FirstLossRound < 0 {
				s.metrics.FirstLossRound = round
			}
		}
		s.metrics.StarvedPostRounds += sp.starved
		s.metrics.NetworkEnergy += sp.ne
		s.lastRoundDelivered = sp.delivered

		// Rotation: the stepper's usableMaxEnergy argmax (ascending scan,
		// strict >) restricted to the span's constant usable set.
		for _, i := range sp.opList {
			nodes := s.posts[i].Nodes
			best, bestE := -1, -1.0
			for _, j := range sp.usable[i] {
				if nodes[j].Energy > bestE {
					best, bestE = j, nodes[j].Energy
				}
			}
			nodes[best].Energy -= sp.need[i]
		}

		spanBroke := false
		for _, c := range s.chargers {
			if c.downUntil >= round {
				s.metrics.ChargerDownRounds++
				continue
			}
			if c.target < 0 {
				continue // certified idle: pickTarget would return -1
			}
			dest := s.p.Posts[c.target]
			dist := geom.Dist(c.pos, dest)
			step := c.cfg.SpeedPerRound
			if step >= dist {
				// The conservative travel bound ran out before the horizon
				// did: arrive exactly as the stepper would and end the span
				// (the next round charges, which only step() may do).
				c.pos = dest
				s.metrics.ChargerDistance += dist
				spanBroke = true
				continue
			}
			c.pos = geom.Lerp(c.pos, dest, step/dist)
			s.metrics.ChargerDistance += step
		}

		if s.tracer != nil {
			s.tracer.Observe(round, s)
		}
		consumed++
		if spanBroke {
			break
		}
	}
	return consumed
}
