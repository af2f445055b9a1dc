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
// tolerance: every float accumulator — each battery, NetworkEnergy,
// ChargerDistance — receives the stepper's own operations in the
// stepper's own order (see step()'s round-sum network energy; different
// accumulators may be replayed in another interleaving, because within a
// span no mutation reads another's state), integer counters advance by
// per-round constants, and every
// round whose behaviour could differ — an event round — is executed by
// the very same step() the exact core uses. Stochastic hazards are
// sampled onset rounds in the fault engine's heap (fault.go), which both
// cores fire from step() and which draw the RNG only there, so the cores
// share one realisation per seed. Only lossy links, which draw per
// report per round, keep a configuration off the event core.
//
// Span lengths come from conservative horizons. The starvation bound
// uses that an operational post pays exactly `need` per round out of its
// usable pool and that the rotation's max node holds at least the pool
// mean. The idle-charger bound counts whole payments: the rotation
// always pays the post's fullest node, so a post's nodes above a floor F
// just over the charger's target absorb sum_j floor((e_j - F)/need)
// payments before any node below F can be the max — and only then can a
// payment push a node under the target (idleHorizon has the proof).
// Both bounds keep two rounds of slack for float drift (ulp-scale per
// round, many orders below `need`). Charger travel needs no bound: the
// replay runs the stepper's own travel arithmetic and ends the span on
// the round a charger arrives. An underestimated horizon only ends a
// span sooner; the event round always runs through step().
//
// Cost: the horizons that read no battery (repair, fault onset, charger
// state) are checked first, so an event round they force costs O(fleet)
// on top of step(). A span costs one pass over the nodes (computeSpan),
// one over the posts, the idle-charger payment count over operational
// posts' usable nodes, and its replay: O(rounds × fleet) travel, then
// each operational post's payments on a local copy of its energies.
//
// Tracers see every round: with a tracer attached a span advances one
// round per replay, leaving the simulator's observable state (metrics,
// batteries, charger positions) exactly as the stepper would, so Observe
// fires per round in both cores and trace output is bit-identical.
// Observation cost itself is not skipped — a tracer that scans the
// network every round bounds the speedup, not the span.

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
	maxE   []float64 // max usable energy at span start (-1 when none usable)
	minE   []float64 // min usable energy at span start (+Inf when none usable)
	sumE   []float64 // total usable energy at span start

	// Post i's usable node indices, ascending, are
	// usable[usableOff[i]:usableOff[i+1]] (usableOf).
	usableOff []int32
	usable    []int32

	// recovery is the earliest DownUntil still ahead over every node,
	// dead or alive (0 when none): a transient recovers the round after.
	recovery int

	energy []float64 // replay scratch: one post's usable energies
}

func (sp *spanState) init(posts []Post) {
	n := len(posts)
	sp.need = make([]float64, n)
	sp.op = make([]bool, n)
	sp.opList = make([]int, 0, n)
	sp.maxE = make([]float64, n)
	sp.minE = make([]float64, n)
	sp.sumE = make([]float64, n)
	sp.usableOff = make([]int32, n+1)
	m, total := 0, 0
	for i := range posts {
		m = max(m, len(posts[i].Nodes))
		total += len(posts[i].Nodes)
	}
	sp.usable = make([]int32, total)
	sp.energy = make([]float64, m)
}

// usableOf returns post i's usable node indices, ascending.
func (sp *spanState) usableOf(i int) []int32 {
	return sp.usable[sp.usableOff[i]:sp.usableOff[i+1]]
}

// runEvent is the event core's driver: compute the span ahead, fast-
// forward its reduced rounds, then let step() execute the event round
// exactly. Every iteration consumes at least one round. The horizons
// that read no battery come first, so an event round that a fault, a
// repair or a charger already forces costs no span snapshot.
func (s *Simulator) runEvent(ctx context.Context, rounds int) error {
	done := 0
	for done < rounds {
		if err := ctx.Err(); err != nil {
			return err
		}
		if l := s.eventHorizon(rounds - done); l > 0 {
			s.computeSpan()
			if l = s.spanLength(l); l > 0 {
				k := s.fastForward(l)
				s.core.Spans++
				s.core.ReducedRounds += int64(k)
				done += k
				continue
			}
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
// round of the span. Its one pass over the nodes also records what the
// horizons need: each post's usable set, max, min and total energy, and
// the earliest transient recovery.
func (s *Simulator) computeSpan() {
	sp := &s.span
	n := s.p.N()
	round := s.metrics.Rounds + 1 // the round about to execute
	arrived := s.arrived
	for i := range arrived {
		arrived[i] = 0
	}
	sp.recovery = 0
	top := int32(0)
	for i := 0; i < n; i++ {
		nodes := s.posts[i].Nodes
		maxE, minE, sumE := -1.0, math.Inf(1), 0.0
		for j := range nodes {
			nd := &nodes[j]
			if du := nd.DownUntil; du >= round {
				// Down through this round (usableAt's complement for a
				// live node; a dead one keeps its stale DownUntil).
				if sp.recovery == 0 || du < sp.recovery {
					sp.recovery = du
				}
				continue
			}
			if !nd.Alive {
				continue
			}
			sp.usable[top] = int32(j)
			top++
			e := nd.Energy
			sumE += e
			maxE, minE = max(maxE, e), min(minE, e)
		}
		sp.usableOff[i+1] = top
		sp.maxE[i], sp.minE[i], sp.sumE[i] = maxE, minE, sumE
	}
	sp.delivered, sp.lost, sp.starved, sp.ne = 0, 0, 0, 0
	sp.opList = sp.opList[:0]
	overheadBits := float64(s.cfg.PacketBits)
	for _, i := range s.order {
		carry := arrived[i] + 1
		rxCost := float64(float64(arrived[i]) * s.perRx[i])
		txCost := float64(float64(carry) * s.perTx[i])
		need := rxCost + txCost + float64(s.p.Overhead(i)*overheadBits)
		sp.need[i] = need
		// Operational iff the stepper's usableMaxEnergy node covers the
		// need: maxE is that node's energy (same strict-> scan).
		op := sp.usableOff[i+1] > sp.usableOff[i] && !(sp.maxE[i] < need)
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

// eventHorizon returns how many rounds ahead are certified free of the
// events that need no span snapshot to see — a due repair, the fault
// engine's next onset, a charger that is done, parked or arriving —
// capped at maxL. Idle chargers are left to spanLength, which
// bounds them from the snapshot. 0 means the next round must run through
// step(); since spanLength only lowers this bound, skipping the snapshot
// then changes no span.
func (s *Simulator) eventHorizon(maxL int) int {
	r0 := s.metrics.Rounds
	l := maxL

	// A pending repair lands at repairApplyAfter+1.
	if s.repairPending {
		l = min(l, s.repairApplyAfter-r0)
	}

	// Fault events: the next scheduled entry or sampled stochastic event.
	if s.faults != nil {
		if next := s.faults.nextEventRound(); next > 0 {
			l = min(l, next-r0-1)
		}
	}

	// Chargers: down, finishing, parked or travelling.
	for _, c := range s.chargers {
		if l <= 0 {
			return 0
		}
		l = min(l, s.chargerHorizon(c, r0))
	}
	return max(l, 0)
}

// spanLength lowers eventHorizon's bound l by the horizons that read the
// span snapshot, and returns how many reduced rounds are certified
// homogeneous. 0 means the next round must run through step().
func (s *Simulator) spanLength(l int) int {
	r0 := s.metrics.Rounds
	sp := &s.span

	// Transient recoveries re-enable nodes at DownUntil+1, changing the
	// usable sets, rotation and charger views.
	if sp.recovery > 0 {
		l = min(l, sp.recovery-r0)
	}

	// Starvation: an operational post pays exactly `need` per round out
	// of its usable pool, and while the pool holds at least m·need the
	// rotation's max node must hold at least `need` (the max is at least
	// the mean), so floor(sum/need) - m - 2 rounds cannot starve it (the
	// slack absorbs float drift).
	for _, i := range sp.opList {
		need := sp.need[i]
		if need <= 0 {
			continue
		}
		m := len(sp.usableOf(i))
		if q := sp.sumE[i] / need; q < float64(l+m)+3 {
			l = min(l, int(q)-m-2)
			if l <= 0 {
				return 0
			}
		}
	}

	// Idle chargers: one that is up with no target is idle.
	for _, c := range s.chargers {
		if c.target < 0 && c.downUntil <= r0 {
			l = min(l, s.idleHorizon(c))
		}
		if l <= 0 {
			return 0
		}
	}
	return l
}

// chargerHorizon returns how many reduced rounds this charger's
// behaviour is certified constant without reading the span snapshot:
// counting down-rounds. It returns 0 for a charger that must run through
// step(), and math.MaxInt for an idle one, whose bound spanLength takes
// from the snapshot, and for a travelling one, whose arrival travel()
// detects.
func (s *Simulator) chargerHorizon(c *chargerState, r0 int) int {
	if c.downUntil > r0 {
		return c.downUntil - r0
	}
	if c.target < 0 {
		return math.MaxInt // idle: spanLength applies idleHorizon
	}
	if c.doneWith(s, c.target) {
		return 0 // releases and re-picks next round
	}
	dist := geom.Dist(c.pos, s.p.Posts[c.target])
	if dist <= 1e-9 {
		return 0 // parked: every charging round is an event round
	}
	// Travelling: the target stays claimed and (monotonically) not done,
	// and travel() ends the span on the arrival round.
	return math.MaxInt
}

// idleHorizon bounds how long every unclaimed usable post stays at or
// above the charger's target fraction, so an idle charger's per-round
// pickTarget keeps returning -1. It reads the span snapshot, so
// computeSpan must have run for the round whose pickTarget is certified
// (the next one).
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
	floorE := float64(c.cfg.TargetFrac * capacity * (1 + 1e-9))
	best := math.MaxInt
	for i := range s.posts {
		if sp.usableOff[i+1] == sp.usableOff[i] || s.claimed[i] {
			continue
		}
		// pickTarget's own predicate: a post needy now stays needy.
		if sp.minE[i]/capacity < c.cfg.TargetFrac {
			return 0
		}
		need := sp.need[i]
		if !sp.op[i] || need <= 0 {
			continue // frozen post: its batteries never move in-span
		}
		nodes := s.posts[i].Nodes
		q := 0.0
		for _, j := range sp.usableOf(i) {
			if e := nodes[j].Energy; e > floorE {
				q += math.Floor((e - floorE) / need * (1 - 1e-9))
			}
		}
		// Compare in float: best starts at MaxInt.
		if q < float64(best)+2 {
			best = min(best, max(int(q)-2, 0))
			if best == 0 {
				return 0
			}
		}
	}
	return best
}

// fastForward replays up to l reduced rounds and returns how many it
// executed (fewer when a charger arrived and the span had to end). Each
// reduced round applies exactly the state mutations step() would:
// per-round counters, one rotation payment per operational post and
// charger down-counting or travel. Charger travel reads no battery, so
// it runs first and fixes the round count; the rotation then replays
// post by post. With a tracer attached the span advances one round at a
// time, so Observe sees every round's state.
func (s *Simulator) fastForward(l int) int {
	if s.tracer == nil {
		k, _ := s.travel(l)
		s.replay(k)
		return k
	}
	for k := 1; k <= l; k++ {
		_, arrived := s.travel(1)
		s.replay(1)
		s.tracer.Observe(s.metrics.Rounds, s)
		if arrived {
			return k
		}
	}
	return l
}

// travel advances every charger through up to l reduced rounds, round by
// round in fleet order (the stepper's order of ChargerDistance sums), with
// step()'s own travel arithmetic. It returns the rounds taken and whether
// a travelling charger arrived on the last of them: the span ends there,
// because the next round charges, which only step() may do.
func (s *Simulator) travel(l int) (int, bool) {
	if len(s.chargers) == 0 {
		return l, false
	}
	r0 := s.metrics.Rounds
	for k := 1; k <= l; k++ {
		round := r0 + k
		arrived := false
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
				c.pos = dest
				s.metrics.ChargerDistance += dist
				arrived = true
				continue
			}
			c.pos = geom.Lerp(c.pos, dest, step/dist)
			s.metrics.ChargerDistance += step
			// step() parks a charger within 1e-9 m of its target, so
			// stopping that close is an arrival too.
			if geom.Dist(c.pos, dest) <= 1e-9 {
				arrived = true
			}
		}
		if arrived {
			return k, true
		}
	}
	return l, false
}

// replay applies k reduced rounds' reporting counters and rotation
// payments. Posts are independent within a span, so each operational
// post replays its k payments on a local copy of its usable energies:
// the stepper's usableMaxEnergy argmax (ascending scan, strict >, so the
// lowest index wins ties) and `Energy -= need`, in the same sequence per
// node as round-major replay, hence the same bits.
func (s *Simulator) replay(k int) {
	sp := &s.span
	first := s.metrics.Rounds + 1
	s.metrics.Rounds += k
	kk := int64(k)
	s.metrics.ReportsDelivered += sp.delivered * kk
	s.metrics.BitsDelivered += sp.delivered * int64(s.cfg.PacketBits) * kk
	if sp.lost > 0 {
		s.metrics.ReportsLost += sp.lost * kk
		if s.metrics.FirstLossRound < 0 {
			s.metrics.FirstLossRound = first
		}
	}
	s.metrics.StarvedPostRounds += sp.starved * kk
	for r := 0; r < k; r++ {
		s.metrics.NetworkEnergy += sp.ne // one add per round, as step() does
	}
	s.lastRoundDelivered = sp.delivered

	for _, i := range sp.opList {
		nodes := s.posts[i].Nodes
		u := sp.usableOf(i)
		e := sp.energy[:len(u)]
		for x, j := range u {
			e[x] = nodes[j].Energy
		}
		need := sp.need[i]
		for r := 0; r < k; r++ {
			best := 0
			for x := 1; x < len(e); x++ {
				if e[x] > e[best] {
					best = x
				}
			}
			e[best] -= need
		}
		for x, j := range u {
			nodes[j].Energy = e[x]
		}
	}
}
