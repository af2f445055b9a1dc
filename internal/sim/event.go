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
// scheduled fault fires, no repair lands, no transient recovers, no post
// starves and no charger changes behaviour (finishes travelling, charges,
// or picks a target). Within a span every round moves the same reports,
// burns the same per-post energies and leaves every decision — rotation
// argmax, flow, charger branch — on the same code path, so the core
// replays only the mutations that matter (per-round counters, one
// battery payment per operational post, charger travel arithmetic) and
// skips the per-round decision logic entirely: flow recomputation and
// the chargers' O(posts × nodes) target scans.
//
// Sampled node faults fire inside spans. step() runs a round as three
// phases — reports, faults, chargers — so a sampled permanent or
// transient onset at round f leaves round f's reports to the span; the
// span then runs the fault phase itself (spanFault), which reads no
// battery, and re-snapshots only the posts the faults touched. Those
// posts keep their per-round need as long as none flips operational
// status, so the flow, the counters and every other post's bounds stand,
// and the span continues under the touched posts' new bounds. It ends at
// f instead, with round f's real charger phase, when a touched post flips
// status or is a charger's claimed target, or when the round fired a
// correlated outage or a charger breakdown.
//
// Rotation payments are settled lazily: a post owes one payment per
// round of the span and pays them only when a fault touches it (on its
// old usable set, since round f's reports precede the fault) or when the
// span ends. Each battery still receives the stepper's operations in the
// stepper's order.
//
// Bit-identity with the per-round stepper is by construction, not by
// tolerance: every float accumulator — each battery, NetworkEnergy,
// ChargerDistance — receives the stepper's own operations in the
// stepper's own order (see reportPhase's round-sum network energy;
// different accumulators may be replayed in another interleaving,
// because within a span no mutation reads another's state), integer
// counters advance by per-round constants, and every round whose
// behaviour could differ — an event round — is executed by the very same
// step() the exact core uses. Stochastic hazards are sampled onset
// rounds in the fault engine's heap (fault.go), which both cores fire
// through faultPhase and which draw the RNG only there, so the cores
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
// payment push a node under the target (idleBound has the proof).
// Both bounds keep two rounds of slack for float drift (ulp-scale per
// round, many orders below `need`). Charger travel needs no bound: the
// replay runs the stepper's own travel arithmetic and ends the span on
// the round a charger arrives. An underestimated horizon only ends a
// span sooner; the event round always runs through step().
//
// Cost: the horizons that read no battery (repair, scheduled fault,
// charger state) are checked first, so an event round they force costs
// O(fleet) on top of step(). A span costs one pass over the nodes
// (computeSpan), one over the posts, the idle-charger payment count over
// operational posts' usable nodes, O(rounds × fleet) travel, per
// in-span fault round O(fleet) plus one pass over each touched post's
// nodes, and each operational post's owed payments, settled on a local
// copy of its usable energies.
//
// Tracers see every round: with a tracer attached a span advances one
// round per replay and ends the round before each sampled onset, leaving
// the simulator's observable state (metrics, batteries, charger
// positions) exactly as the stepper would, so Observe fires per round in
// both cores and trace output is bit-identical. Observation cost itself
// is not skipped — a tracer that scans the network every round bounds
// the speedup, not the span.

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
	maxE   []float64 // max usable energy at the snapshot (-1 when none usable)
	minE   []float64 // min usable energy at the snapshot (+Inf when none usable)
	sumE   []float64 // total usable energy at the snapshot
	paid   []int     // round through which the post's payments are settled

	// Post i's usable node indices, ascending, are
	// usable[usableOff[i]:usableEnd[i]] (usableOf). Each post owns the
	// fixed segment usable[usableOff[i]:usableOff[i+1]], one slot per
	// node, so an in-span fault re-snapshots it in place.
	usableOff []int32
	usableEnd []int32
	usable    []int32

	// recovery is the earliest DownUntil still ahead over every node,
	// dead or alive (0 when none): a transient recovers the round after.
	recovery int

	energy []float64 // settlement scratch: one post's usable energies
}

func (sp *spanState) init(posts []Post) {
	n := len(posts)
	sp.need = make([]float64, n)
	sp.op = make([]bool, n)
	sp.opList = make([]int, 0, n)
	sp.maxE = make([]float64, n)
	sp.minE = make([]float64, n)
	sp.sumE = make([]float64, n)
	sp.paid = make([]int, n)
	sp.usableOff = make([]int32, n+1)
	sp.usableEnd = make([]int32, n)
	m, total := 0, 0
	for i := range posts {
		m = max(m, len(posts[i].Nodes))
		total += len(posts[i].Nodes)
		sp.usableOff[i+1] = int32(total)
	}
	sp.usable = make([]int32, total)
	sp.energy = make([]float64, m)
}

// usableOf returns post i's usable node indices, ascending.
func (sp *spanState) usableOf(i int) []int32 {
	return sp.usable[sp.usableOff[i]:sp.usableEnd[i]]
}

// snapshot records which of post i's nodes are usable at the given round,
// with their max, min and total energy, and returns the earliest
// DownUntil at or after the round over the post's nodes, dead or alive
// (0 when none).
func (sp *spanState) snapshot(i int, nodes []Node, round int) (recovery int) {
	maxE, minE, sumE := -1.0, math.Inf(1), 0.0
	top := sp.usableOff[i]
	for j := range nodes {
		nd := &nodes[j]
		if du := nd.DownUntil; du >= round {
			// Down through this round (usableAt's complement for a
			// live node; a dead one keeps its stale DownUntil).
			if recovery == 0 || du < recovery {
				recovery = du
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
	sp.usableEnd[i] = top
	sp.maxE[i], sp.minE[i], sp.sumE[i] = maxE, minE, sumE
	return recovery
}

// operational reports whether post i covers the given need: the
// stepper's usableMaxEnergy node holds maxE (same strict-> scan).
func (sp *spanState) operational(i int, need float64) bool {
	return sp.usableEnd[i] > sp.usableOff[i] && !(sp.maxE[i] < need)
}

// runEvent is the event core's driver: compute the span ahead, fast-
// forward its reduced rounds, then let step() execute the event round
// exactly. Every iteration consumes at least one round. The horizons
// that read no battery come first, so an event round that a repair or a
// charger already forces costs no span snapshot.
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
// any battery: which posts operate, what each pays, and the per-round
// report deltas. The arithmetic mirrors reportPhase's lossless path
// exactly — same iteration order, same float expressions — so the
// resulting per-round sums are the ones the stepper itself would produce
// on every round of the span. Its one pass over the nodes also records
// what the horizons need: each post's usable set, max, min and total
// energy, and the earliest transient recovery.
func (s *Simulator) computeSpan() {
	sp := &s.span
	n := s.p.N()
	r0 := s.metrics.Rounds
	arrived := s.arrived
	for i := range arrived {
		arrived[i] = 0
	}
	sp.recovery = 0
	for i := 0; i < n; i++ {
		if du := sp.snapshot(i, s.posts[i].Nodes, r0+1); du > 0 && (sp.recovery == 0 || du < sp.recovery) {
			sp.recovery = du
		}
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
		op := sp.operational(i, need)
		sp.op[i] = op
		if !op {
			sp.starved++
			sp.lost += carry
			continue
		}
		sp.ne += need
		sp.opList = append(sp.opList, i)
		sp.paid[i] = r0
		if par := s.tree.Parent[i]; par < n {
			arrived[par] += carry
		} else {
			sp.delivered += carry
		}
	}
}

// eventHorizon returns how many rounds ahead are certified free of the
// events that need no span snapshot to see — a due repair, the next
// scheduled fault, a charger that is done, parked or arriving — capped at
// maxL. Sampled onsets fire inside the span (spanFault) unless a tracer
// is attached, which must observe the state before each fault's charger
// phase; then they end the span the round before, like scheduled ones.
// Idle chargers are left to spanLength, which bounds them from the
// snapshot. 0 means the next round must run through step(); since
// spanLength only lowers this bound, skipping the snapshot then changes
// no span.
func (s *Simulator) eventHorizon(maxL int) int {
	r0 := s.metrics.Rounds
	l := maxL

	// A pending repair lands at repairApplyAfter+1.
	if s.repairPending {
		l = min(l, s.repairApplyAfter-r0)
	}

	// Fault events: the next scheduled entry, and with a tracer the next
	// sampled onset.
	if s.faults != nil {
		if next := s.faults.nextScheduled(); next > 0 {
			l = min(l, next-r0-1)
		}
		if next := s.faults.nextSampled(); next > 0 && s.tracer != nil {
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

	for _, i := range sp.opList {
		if l = s.starveBound(i, l); l <= 0 {
			return 0
		}
	}

	// Idle chargers: one that is up with no target is idle.
	for _, c := range s.chargers {
		if c.idle(r0) {
			l = min(l, s.idleHorizon(c))
		}
		if l <= 0 {
			return 0
		}
	}
	return l
}

// starveBound lowers l by operational post i's starvation horizon. The
// post pays exactly `need` per round out of its usable pool, and while
// the pool holds at least m·need the rotation's max node must hold at
// least `need` (the max is at least the mean), so floor(sum/need) - m - 2
// rounds cannot starve it (the slack absorbs float drift). The result
// may be negative.
func (s *Simulator) starveBound(i, l int) int {
	sp := &s.span
	need := sp.need[i]
	if need <= 0 {
		return l
	}
	m := len(sp.usableOf(i))
	if q := sp.sumE[i] / need; q < float64(l+m)+3 {
		return min(l, int(q)-m-2)
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
	// and travel() ends the span on the arrival round. A fault on the
	// target ends it too (spanFault).
	return math.MaxInt
}

// idleHorizon bounds how long every unclaimed usable post stays at or
// above the charger's target fraction, so an idle charger's per-round
// pickTarget keeps returning -1. It reads the span snapshot, so
// computeSpan must have run for the round whose pickTarget is certified
// (the next one).
func (s *Simulator) idleHorizon(c *chargerState) int {
	best := math.MaxInt
	for i := range s.posts {
		if best = s.idleBound(c, i, best); best == 0 {
			return 0
		}
	}
	return best
}

// idleBound lowers l by post i's term of idleHorizon, read from the
// post's snapshot and its current batteries.
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
func (s *Simulator) idleBound(c *chargerState, i, l int) int {
	sp := &s.span
	if sp.usableEnd[i] == sp.usableOff[i] || s.claimed[i] {
		return l
	}
	capacity := s.cfg.BatteryCapacity
	// pickTarget's own predicate: a post needy now stays needy.
	if sp.minE[i]/capacity < c.cfg.TargetFrac {
		return 0
	}
	need := sp.need[i]
	if !sp.op[i] || need <= 0 {
		return l // frozen post: its batteries never move in-span
	}
	floorE := float64(c.cfg.TargetFrac * capacity * (1 + 1e-9))
	nodes := s.posts[i].Nodes
	q := 0.0
	for _, j := range sp.usableOf(i) {
		if e := nodes[j].Energy; e > floorE {
			q += math.Floor((e - floorE) / need * (1 - 1e-9))
		}
	}
	// Compare in float: l may be MaxInt.
	if q < float64(l)+2 {
		return max(int(q)-2, 0)
	}
	return l
}

// fastForward replays up to l reduced rounds and returns how many it
// executed (fewer when a charger arrived or a fault ended the span). Each
// reduced round applies exactly the state mutations step() would:
// per-round counters, one rotation payment per operational post and
// charger down-counting or travel. Charger travel reads no battery, so it
// runs ahead up to the next sampled fault and fixes the round count; the
// rotation payments are owed per post and settled only when a fault
// touches the post or the span ends. With a tracer attached the span
// advances one round at a time, so Observe sees every round's state.
func (s *Simulator) fastForward(l int) int {
	r0 := s.metrics.Rounds
	if s.tracer != nil {
		for r := r0 + 1; r <= r0+l; r++ {
			_, arrived := s.travel(r-1, 1)
			s.advance(r)
			s.settleAll(r)
			s.tracer.Observe(r, s)
			if arrived {
				return r - r0
			}
		}
		return l
	}
	end := r0 + l // the span's last round, lowered by in-span faults
	base := r0    // chargers have run through round base
	for {
		f := end + 1 // the next sampled fault in the span, if any
		if s.faults != nil {
			if next := s.faults.nextSampled(); next > 0 && next <= end {
				f = next
			}
		}
		k, arrived := s.travel(base, f-1-base)
		if base += k; arrived || f > end {
			s.advance(base)
			s.settleAll(base)
			return base - r0
		}
		// Round f's reports are the span's; its faults fire for real.
		s.advance(f)
		if end = s.spanFault(f, end); end == f {
			s.settleAll(f)
			s.chargerPhase(f)
			return f - r0
		}
	}
}

// spanFault runs round f's fault phase inside a span whose reports have
// advanced through f, and returns the span's new last round: f when the
// span must end there, after which the caller settles every post and runs
// round f's real charger phase. Sampled node faults read no battery, so
// the posts may still owe payments when they fire. Each post a fault
// touched is settled through f on its old snapshot, then re-snapshotted
// for round f+1, and the span ends at f if the post flips operational
// status (the flow changes) or is a charger's claimed target (doneWith
// may change), or if the round fired a correlated outage or a charger
// breakdown. Otherwise the span continues under the touched posts'
// starvation and idle-charger bounds, their earliest new recovery and a
// newly scheduled repair. Removing usable nodes can only raise a post's
// usable minimum, so round f's own idle pickTarget stays certified.
func (s *Simulator) spanFault(f, end int) int {
	outages, breakdowns := s.metrics.CorrelatedOutages, s.metrics.ChargerBreakdowns
	s.faultPhase(f)
	if s.metrics.CorrelatedOutages != outages || s.metrics.ChargerBreakdowns != breakdowns {
		return f
	}
	if s.repairPending {
		end = min(end, s.repairApplyAfter)
	}
	sp := &s.span
	for _, i := range s.touched {
		s.settle(i, f)
		if du := sp.snapshot(i, s.posts[i].Nodes, f+1); du > 0 {
			end = min(end, du)
		}
		if sp.operational(i, sp.need[i]) != sp.op[i] {
			return f
		}
		if sp.op[i] {
			end = f + max(s.starveBound(i, end-f), 0)
		}
		for _, c := range s.chargers {
			if c.target == i {
				return f
			}
			if c.idle(f - 1) {
				end = f + s.idleBound(c, i, end-f)
			}
		}
	}
	return end
}

// travel advances every charger through up to l reduced rounds after
// round base, round by round in fleet order (the stepper's order of
// ChargerDistance sums), with step()'s own travel arithmetic. It returns
// the rounds taken and whether a travelling charger arrived on the last
// of them: the span ends there, because the next round charges, which
// only step() may do.
func (s *Simulator) travel(base, l int) (int, bool) {
	if len(s.chargers) == 0 {
		return l, false
	}
	for k := 1; k <= l; k++ {
		round := base + k
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

// advance applies the span's per-round reporting counters for every
// round after the last one counted, through round r.
func (s *Simulator) advance(r int) {
	sp := &s.span
	k := r - s.metrics.Rounds
	if k <= 0 {
		return
	}
	first := s.metrics.Rounds + 1
	s.metrics.Rounds = r
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
	for ; k > 0; k-- {
		s.metrics.NetworkEnergy += sp.ne // one add per round, as step() does
	}
	s.lastRoundDelivered = sp.delivered
}

// settleAll settles every operational post's payments through round r.
func (s *Simulator) settleAll(r int) {
	for _, i := range s.span.opList {
		s.settle(i, r)
	}
}

// settle applies the rotation payments post i owes for the rounds after
// its last settlement through round r, if it is operational. Posts are
// independent within a span, so the post replays its payments on a local
// copy of its usable energies: the stepper's usableMaxEnergy argmax
// (ascending scan, strict >, so the lowest index wins ties) and
// `Energy -= need`, in the same sequence per node as round-major replay,
// hence the same bits.
func (s *Simulator) settle(i, r int) {
	sp := &s.span
	k := r - sp.paid[i]
	sp.paid[i] = r
	if k <= 0 || !sp.op[i] {
		return
	}
	nodes := s.posts[i].Nodes
	u := sp.usableOf(i)
	e := sp.energy[:len(u)]
	for x, j := range u {
		e[x] = nodes[j].Energy
	}
	need := sp.need[i]
	for ; k > 0; k-- {
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
