// Package sim is a round-based simulator for a deployed wireless-
// rechargeable sensor network executing a deployment/routing solution,
// together with a mobile wireless charger that travels between posts and
// recharges them.
//
// It closes the loop on the paper's model: the analytic objective
// (model.Evaluate) promises a long-run charger energy per reporting round;
// the simulator actually runs the network — per-node batteries, in-post
// duty rotation, hop-by-hop forwarding, charger travel and charging with
// the multi-node efficiency gain — and measures the charger's empirical
// energy per delivered round, which converges to the analytic value under
// an adequate charging schedule (property-tested). It also supports
// charger-less runs for lifetime studies.
//
// Beyond the paper, the simulator is self-healing: a pluggable
// fault-injection engine (Config.Faults) drives permanent node failures,
// transient outages, spatially correlated post outages and charger
// breakdowns — stochastically or from a deterministic FaultSchedule — and
// an online repair policy (Config.Repair) re-attaches orphaned subtrees
// by re-running the recharging-cost routing phases over the surviving
// posts, with configurable repair latency. Degradation metrics
// (time-to-first-partition, repairs, latency, post-repair cost inflation,
// per-round availability) quantify what failures cost.
//
// Time advances in reporting rounds: every round each post originates one
// report of PacketBits bits that is forwarded hop-by-hop to the base
// station.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"wrsn/internal/graph"
	"wrsn/internal/heal"
	"wrsn/internal/model"
)

// Config parameterises a simulation run. Zero-value fields are filled
// with defaults by New where noted.
type Config struct {
	// Problem and Solution define the network: post locations, energy
	// and charging models, node counts and the routing tree.
	Problem  *model.Problem
	Solution model.Solution

	// PacketBits is the size of one report in bits (default 1000).
	PacketBits int
	// BatteryCapacity is each node's battery in nJ (default: enough for
	// roughly 2000 rounds of the busiest post's work, so charging
	// schedules have slack).
	BatteryCapacity float64
	// InitialChargeFrac is the starting battery fraction in (0, 1]
	// (default 1.0; values outside [0, 1] are rejected).
	InitialChargeFrac float64

	// Charger configures the mobile charger(s); nil disables charging
	// entirely (lifetime studies).
	Charger *ChargerConfig
	// Chargers is the fleet size: how many identical chargers (per
	// Charger) patrol the field. 0 and 1 both mean a single charger.
	// Chargers coordinate by claiming targets, so no two service the
	// same post simultaneously.
	Chargers int

	// Faults configures the fault-injection engine: stochastic and
	// scheduled node failures, transient outages, correlated post
	// outages and charger breakdowns. nil injects nothing.
	Faults *FaultConfig
	// Repair enables the online tree-repair policy: when a post dies,
	// orphaned subtrees re-attach by re-running the recharging-cost
	// routing phases over the surviving posts. nil leaves the tree
	// static (the no-repair baseline).
	Repair *RepairConfig

	// LinkLossProb is the probability that one transmission attempt of a
	// report fails and must be retransmitted (default 0: the paper's
	// lossless links). Lossy links inflate transmit energy by roughly
	// 1/(1-p) — an extension quantifying how MAC-layer loss erodes the
	// analytic recharging cost.
	LinkLossProb float64
	// MaxRetries caps retransmission attempts per report per hop; a
	// report dropping all attempts is lost. It defaults to 8 for
	// lossless runs but must be set explicitly (>= 1) when LinkLossProb
	// is positive.
	MaxRetries int
	// Seed drives all randomness (failures). Runs are deterministic for
	// a fixed seed.
	Seed int64
	// Stepper selects the simulation core: StepperAuto (default) runs the
	// event-driven core whenever the configuration is eligible,
	// StepperEvent demands it (New errors when ineligible), StepperExact
	// forces the per-round reference stepper. The two cores are
	// bit-identical for every configuration without per-round randomness
	// in the reporting path (see event.go).
	Stepper StepperKind
}

// RepairConfig tunes the online tree-repair policy.
type RepairConfig struct {
	// LatencyRounds is how many rounds of outage pass between detecting
	// a dead post and the patched tree taking effect (repairs are not
	// instantaneous). 0 applies the new tree before the next round's
	// reports.
	LatencyRounds int
	// DisableSiblingMerge skips the Phase III sibling merge during
	// rebuilds (ablation knob).
	DisableSiblingMerge bool
}

// ChargerPolicy selects how the charger picks its next post. The paper
// leaves charger scheduling out of scope ("how to schedule the wireless
// charger ... is not the focus of this paper"); these policies let the
// simulator study that open question.
type ChargerPolicy string

const (
	// PolicyUrgency (default) targets the post with the smallest
	// projected time-to-empty among posts below the target fraction.
	PolicyUrgency ChargerPolicy = "urgency"
	// PolicyRoundRobin cycles through posts in index order, charging
	// any post below the target fraction — simpler, but it lets busy
	// posts starve when batteries are tight.
	PolicyRoundRobin ChargerPolicy = "round-robin"
	// PolicyTour plans a short travelling-salesman tour (nearest
	// neighbour + 2-opt, package tour) over every post currently below
	// the target fraction and follows it, replanning when the tour is
	// exhausted. Minimises travel at the price of scheduling freshness.
	PolicyTour ChargerPolicy = "tour"
)

// ChargerConfig describes the mobile wireless charger.
type ChargerConfig struct {
	// PowerPerRound is the charger's dissemination budget per round
	// while parked at a post, in nJ.
	PowerPerRound float64
	// SpeedPerRound is travel distance per round in meters.
	SpeedPerRound float64
	// FillToFrac stops charging a post once all of its nodes are at
	// this battery fraction (default 0.95).
	FillToFrac float64
	// TargetFrac marks a post as needing charge when its lowest node
	// falls below this fraction (default 0.5).
	TargetFrac float64
	// Policy selects the target-picking strategy (default PolicyUrgency).
	Policy ChargerPolicy
}

// Node is one sensor node's runtime state.
type Node struct {
	Energy float64
	Alive  bool
	// DownUntil, when positive, marks a transient outage: the node is
	// offline through round DownUntil inclusive, then recovers with its
	// battery intact.
	DownUntil int
}

// usableAt reports whether the node can work at the given round: alive
// and not transiently down.
func (nd *Node) usableAt(round int) bool {
	return nd.Alive && nd.DownUntil < round
}

// Post is the runtime state of one post: its nodes and rotation cursor.
type Post struct {
	Nodes []Node
}

// usableMaxEnergy returns the index of the usable node with the most
// energy, or -1 when none is usable. Rotation selects this node as the
// round's active worker, which keeps residual energies nearly equal
// across a post (the paper's stated rotation goal).
func (p *Post) usableMaxEnergy(round int) int {
	best, bestE := -1, -1.0
	for i := range p.Nodes {
		if p.Nodes[i].usableAt(round) && p.Nodes[i].Energy > bestE {
			best, bestE = i, p.Nodes[i].Energy
		}
	}
	return best
}

// aliveMaxEnergy returns the index of the alive node with the most
// energy regardless of transient state, or -1 when none is alive. Fault
// injection kills this node so repeated events strip a post
// deterministically.
func (p *Post) aliveMaxEnergy() int {
	best, bestE := -1, -1.0
	for i := range p.Nodes {
		if p.Nodes[i].Alive && p.Nodes[i].Energy > bestE {
			best, bestE = i, p.Nodes[i].Energy
		}
	}
	return best
}

// AliveCount returns the number of permanently alive nodes at the post
// (transiently down nodes count: they will recover).
func (p *Post) AliveCount() int {
	c := 0
	for i := range p.Nodes {
		if p.Nodes[i].Alive {
			c++
		}
	}
	return c
}

// UsableCount returns the number of nodes able to work at the given
// round: alive and not transiently down.
func (p *Post) UsableCount(round int) int {
	c := 0
	for i := range p.Nodes {
		if p.Nodes[i].usableAt(round) {
			c++
		}
	}
	return c
}

// usableEnergy returns, in one pass, the number of nodes usable at the
// given round, their lowest energy (+Inf when none is usable) and their
// total energy summed in index order. The chargers compare minE/capacity
// with their fractions: division by a positive constant is monotone
// under rounding, so that is the lowest per-node fraction.
func (p *Post) usableEnergy(round int) (count int, minE, sum float64) {
	minE = math.Inf(1)
	for i := range p.Nodes {
		nd := &p.Nodes[i]
		if nd.usableAt(round) {
			count++
			sum += nd.Energy
			minE = min(minE, nd.Energy)
		}
	}
	return count, minE, sum
}

// Metrics accumulates simulation outcomes.
type Metrics struct {
	Rounds            int
	ReportsDelivered  int64   // reports that reached the base station
	ReportsLost       int64   // reports dropped at dead/exhausted posts
	BitsDelivered     int64   // PacketBits * ReportsDelivered
	NetworkEnergy     float64 // nJ consumed by sensor nodes
	ChargerEnergy     float64 // nJ disseminated by the charger
	ChargerWasted     float64 // nJ disseminated but not stored (full batteries)
	ChargerDistance   float64 // meters travelled
	ChargerVisits     int64   // charging sessions completed
	NodeFailures      int64   // injected permanent failures
	FirstLossRound    int     // first round with a lost report; -1 if none
	StarvedPostRounds int64   // post-rounds spent with no usable node

	// Fault-engine outcomes.
	TransientFaults   int64 // transient node outages injected
	CorrelatedOutages int64 // correlated post-outage events fired
	ChargerBreakdowns int64 // charger breakdowns injected
	ChargerDownRounds int64 // charger-rounds spent out of service

	// Degradation and repair outcomes.
	PostsDead           int     // posts whose last node died
	StrandedPosts       int     // live posts with no possible survivor route to the BS
	FirstPartitionRound int     // first round a live post was physically cut off; -1 if never
	Repairs             int64   // tree repairs applied
	RepairLatencySum    int64   // rounds of outage between death detection and patched trees
	DegradedCost        float64 // analytic cost after the latest repair (nJ per bit-round); 0 before any
	RepairCostInflation float64 // DegradedCost / original plan cost - 1, after the latest repair

	// postCount (reports per full round) is stamped by the simulator so
	// EmpiricalCostPerRound can normalise without a Problem reference.
	postCount int
	// energyStored tracks nJ actually banked into batteries by charging
	// (dissemination x efficiency minus clipping); feeds AuditEnergy.
	energyStored float64
}

// EmpiricalCostPerBitRound returns the charger energy disseminated per
// fully-delivered reporting round, normalised per bit — the measured
// counterpart of model.Evaluate. packetBits must match the run's
// Config.PacketBits.
func (m *Metrics) EmpiricalCostPerBitRound(packetBits int) float64 {
	if m.ReportsDelivered == 0 || m.postCount == 0 {
		return math.Inf(1)
	}
	roundsDelivered := float64(m.ReportsDelivered) / float64(m.postCount)
	return m.ChargerEnergy / roundsDelivered / float64(packetBits)
}

// DeliveryRatio returns delivered / (delivered + lost) reports.
func (m *Metrics) DeliveryRatio() float64 {
	total := m.ReportsDelivered + m.ReportsLost
	if total == 0 {
		return 0
	}
	return float64(m.ReportsDelivered) / float64(total)
}

// MeanRepairLatency returns the mean rounds of outage between detecting
// a dead post and its repair taking effect (0 when no repair ran).
func (m *Metrics) MeanRepairLatency() float64 {
	if m.Repairs == 0 {
		return 0
	}
	return float64(m.RepairLatencySum) / float64(m.Repairs)
}

// Simulator executes a configured run.
type Simulator struct {
	cfg      Config
	p        *model.Problem
	tree     model.Tree // current routing tree (repairs swap it)
	posts    []Post
	order    []int // posts in leaves-first topological order
	perTx    []float64
	perRx    []float64
	drain    []float64 // expected nJ/round consumed at each post
	rng      *rand.Rand
	chargers []*chargerState
	claimed  []bool // posts currently targeted by some charger
	metrics  Metrics
	tracer   Tracer

	faults    *faultEngine
	deadPost  []bool // posts whose last node died (detected)
	touched   []int  // posts whose nodes a fault killed or took down this round
	aliveMask []bool // detectDeaths' partition-check scratch

	planCost         float64 // analytic cost of the original plan (repair metric baseline)
	repairPending    bool
	repairRequested  int // round the pending repair was requested
	repairApplyAfter int // last round the old tree stays in effect

	lastRoundDelivered int64 // reports delivered in the most recent round

	// Reusable per-round scratch (persistent so the steady state of both
	// cores allocates nothing).
	arrived []int64 // reports awaiting forwarding at each post this round

	// Reusable scratch of the repair path: the tree-derived rebuild and
	// the degraded-cost evaluation.
	orderBuf []int                 // rebuildDerived's next leaves-first order
	pending  []int                 // LeavesFirst's child counts, then live subtree sizes
	degraded model.DegradedScratch // EvaluateDegraded's buffers

	// Event-driven core state (event.go).
	eventMode bool      // run the event-horizon core instead of per-round stepping
	span      spanState // per-span flow snapshot and per-round deltas
	core      CoreStats // how rounds were executed (CoreStats)

	// Online repair machinery, built lazily on the first repair and kept
	// for the run: the healer reuses its graph, router and trim state
	// across repairs instead of rebuilding them per event.
	healer    *heal.Healer
	healerErr error      // sticky construction failure (repairs degrade to no-ops)
	repairDst model.Tree // destination buffer Repair writes into (swapped with tree)
	aliveBuf  []int      // per-post alive counts scratch
}

// SetTracer installs a per-round observer (nil disables tracing).
func (s *Simulator) SetTracer(t Tracer) { s.tracer = t }

// DefaultBatteryRounds sizes the default battery: capacity equals this
// many rounds of the busiest post's per-node drain.
const DefaultBatteryRounds = 2000

// New validates cfg, applies defaults and returns a ready Simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.Problem == nil {
		return nil, errors.New("sim: nil problem")
	}
	p := cfg.Problem
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Solution.Deploy.Validate(p); err != nil {
		return nil, fmt.Errorf("sim: invalid deployment: %w", err)
	}
	if err := cfg.Solution.Tree.Validate(p); err != nil {
		return nil, fmt.Errorf("sim: invalid tree: %w", err)
	}
	if cfg.PacketBits <= 0 {
		cfg.PacketBits = 1000
	}
	if cfg.InitialChargeFrac < 0 || cfg.InitialChargeFrac > 1 {
		return nil, fmt.Errorf("sim: initial charge fraction %g outside [0, 1]", cfg.InitialChargeFrac)
	}
	if cfg.InitialChargeFrac == 0 {
		cfg.InitialChargeFrac = 1
	}
	if cfg.Chargers < 0 {
		return nil, fmt.Errorf("sim: negative charger fleet size %d", cfg.Chargers)
	}
	if cfg.LinkLossProb < 0 || cfg.LinkLossProb >= 1 {
		return nil, fmt.Errorf("sim: link loss probability %g outside [0, 1)", cfg.LinkLossProb)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("sim: negative retry cap %d", cfg.MaxRetries)
	}
	if cfg.LinkLossProb > 0 && cfg.MaxRetries == 0 {
		return nil, errors.New("sim: LinkLossProb > 0 requires an explicit MaxRetries >= 1")
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 8
	}
	if cfg.Repair != nil && cfg.Repair.LatencyRounds < 0 {
		return nil, fmt.Errorf("sim: negative repair latency %d", cfg.Repair.LatencyRounds)
	}
	if !p.UniformRates() {
		return nil, errors.New("sim: heterogeneous report rates are not supported by the round-based simulator; use the analytic evaluator")
	}

	n := p.N()
	fleet := 0
	if cfg.Charger != nil {
		fleet = cfg.Chargers
		if fleet < 1 {
			fleet = 1
		}
	} else if cfg.Chargers > 0 {
		return nil, errors.New("sim: Chargers set but Charger config is nil")
	}

	var faultCfg FaultConfig
	if cfg.Faults != nil {
		faultCfg = *cfg.Faults
	}
	if err := faultCfg.validate(n, fleet); err != nil {
		return nil, err
	}

	s := &Simulator{
		cfg:       cfg,
		p:         p,
		tree:      cfg.Solution.Tree.Clone(),
		deadPost:  make([]bool, n),
		aliveMask: make([]bool, n),
		arrived:   make([]int64, n),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	switch cfg.Stepper {
	case StepperAuto:
		s.eventMode = cfg.LinkLossProb == 0
	case StepperEvent:
		if cfg.LinkLossProb != 0 {
			return nil, errors.New("sim: the event-driven core cannot simulate lossy links (per-report randomness); use StepperExact or StepperAuto")
		}
		s.eventMode = true
	case StepperExact:
	default:
		return nil, fmt.Errorf("sim: unknown stepper kind %q", cfg.Stepper)
	}
	s.metrics.FirstLossRound = -1
	s.metrics.FirstPartitionRound = -1

	if err := s.rebuildDerived(); err != nil {
		return nil, err
	}
	if s.cfg.BatteryCapacity <= 0 {
		maxDrainPerNode := 0.0
		for i := 0; i < n; i++ {
			d := s.drain[i] / float64(cfg.Solution.Deploy[i])
			if d > maxDrainPerNode {
				maxDrainPerNode = d
			}
		}
		s.cfg.BatteryCapacity = maxDrainPerNode * DefaultBatteryRounds
	}

	s.posts = make([]Post, n)
	for i := range s.posts {
		nodes := make([]Node, cfg.Solution.Deploy[i])
		for j := range nodes {
			nodes[j] = Node{Energy: s.cfg.BatteryCapacity * s.cfg.InitialChargeFrac, Alive: true}
		}
		s.posts[i] = Post{Nodes: nodes}
	}

	if cfg.Repair != nil {
		planCost, err := model.Evaluate(p, cfg.Solution.Deploy, cfg.Solution.Tree)
		if err != nil {
			return nil, err
		}
		s.planCost = planCost
	}

	if fleet > 0 {
		s.claimed = make([]bool, n)
		for i := 0; i < fleet; i++ {
			ch, err := newChargerState(cfg.Charger, p)
			if err != nil {
				return nil, err
			}
			ch.pos = p.BS // every charger starts at the base station
			s.chargers = append(s.chargers, ch)
		}
	}
	if faultCfg.active() {
		s.faults = newFaultEngine(s, faultCfg)
	}
	if s.eventMode {
		s.span.init(s.posts)
	}
	return s, nil
}

// rebuildDerived recomputes every tree-derived quantity from the current
// routing tree and death mask: the leaves-first topological order, the
// per-post transmit/receive energies at the tree's power levels, and the
// expected per-round drain (live subtree sizes — dead posts originate
// and forward nothing). Called at construction and after each repair.
func (s *Simulator) rebuildDerived() error {
	n := s.p.N()
	bits := float64(s.cfg.PacketBits)

	// Leaves-first topological order over the current tree, built in the
	// spare buffer so a cycle leaves the order in effect untouched.
	if s.pending == nil {
		s.pending = make([]int, n)
		s.perTx = make([]float64, n)
		s.perRx = make([]float64, n)
		s.drain = make([]float64, n)
	}
	order := graph.LeavesFirst(s.tree.Parent, nil, s.orderBuf, s.pending)
	if len(order) != n {
		return model.ErrCycle
	}
	s.order, s.orderBuf = order, s.order

	// Live subtree sizes: dead posts inject no reports and never forward.
	liveSize := s.pending // LeavesFirst is done with its counts
	clear(liveSize)
	for _, i := range order {
		if !s.deadPost[i] {
			liveSize[i]++
		}
		if par := s.tree.Parent[i]; par < n && !s.deadPost[i] {
			liveSize[par] += liveSize[i]
		}
	}

	perTx, perRx, drain := s.perTx, s.perRx, s.drain
	for i := 0; i < n; i++ {
		perTx[i] = s.p.Energy.TxEnergyAtLevel(s.tree.Level[i]) * bits
		perRx[i] = s.p.Energy.RxEnergy() * bits
		// RoundOverhead is expressed per reported bit (the model's unit
		// round), so a PacketBits-sized report scales it like the
		// communication terms.
		own := 0
		if !s.deadPost[i] {
			own = 1
		}
		drain[i] = float64(float64(liveSize[i])*perTx[i]) + float64(float64(liveSize[i]-own)*perRx[i]) + float64(s.p.Overhead(i)*bits)
	}
	return nil
}

// Tree returns a copy of the routing tree currently in effect (the
// original plan until a repair swaps it).
func (s *Simulator) Tree() model.Tree { return s.tree.Clone() }

// Run advances the simulation by `rounds` rounds and returns cumulative
// metrics. It may be called repeatedly to continue the same run.
func (s *Simulator) Run(rounds int) (*Metrics, error) {
	return s.RunCtx(context.Background(), rounds)
}

// RunCtx is Run with cancellation: the context is checked every 64
// rounds (per-round core) or at every event-horizon boundary (event
// core), so a cancelled simulation returns ctx.Err() promptly while
// keeping the check invisible in per-round cost. The simulator state
// stays consistent (whole rounds only), so the run can be resumed.
func (s *Simulator) RunCtx(ctx context.Context, rounds int) (*Metrics, error) {
	if rounds < 0 {
		return nil, fmt.Errorf("sim: negative round count %d", rounds)
	}
	if s.eventMode {
		if err := s.runEvent(ctx, rounds); err != nil {
			return nil, err
		}
	} else {
		for r := 0; r < rounds; r++ {
			if r%64 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			s.step()
			s.core.EventRounds++
		}
	}
	s.metrics.postCount = s.p.N()
	out := s.metrics
	return &out, nil
}

// Metrics returns a snapshot of the cumulative metrics so far.
func (s *Simulator) Metrics() Metrics {
	m := s.metrics
	m.postCount = s.p.N()
	return m
}

// Posts exposes a read-only view of post states for tests and examples.
func (s *Simulator) Posts() []Post { return s.posts }

// RoundAvailability returns the fraction of posts whose report reached
// the base station in the most recent round — the per-round availability
// series (1.0 while the network is healthy, dropping as posts die or
// starve, recovering after repairs).
func (s *Simulator) RoundAvailability() float64 {
	if s.metrics.Rounds == 0 {
		return 0
	}
	return float64(s.lastRoundDelivered) / float64(s.p.N())
}

// step executes one round: its reporting phase, then fault injection,
// death detection and repair scheduling, then one charger round. The
// event core runs the same three phases, the last two also inside a
// span when a sampled fault fires there (event.go).
func (s *Simulator) step() {
	s.metrics.Rounds++
	round := s.metrics.Rounds
	s.reportPhase(round)
	s.faultPhase(round)
	s.chargerPhase(round)
	if s.tracer != nil {
		s.tracer.Observe(round, s)
	}
}

// reportPhase applies a due repair, then moves every post's report one
// round through the tree, paying each operational post's rotation node.
func (s *Simulator) reportPhase(round int) {
	n := s.p.N()

	// A due repair takes effect before this round's reports move.
	if s.repairPending && round > s.repairApplyAfter {
		s.applyRepair(round)
	}

	deliveredBefore := s.metrics.ReportsDelivered

	// arrived[i]: number of reports post i must forward this round that
	// actually arrived (its own + surviving children traffic).
	arrived := s.arrived
	for i := range arrived {
		arrived[i] = 0
	}
	// Network energy accumulates into a per-round sum added once at the
	// end of the pass. Keeping the accumulation order identical between
	// rounds lets the event core replay a homogeneous span bit-exactly
	// (the sum is the same float every round, so `+= roundNE` repeated is
	// the stepper's own arithmetic).
	roundNE := 0.0
	for _, i := range s.order {
		carry := arrived[i] + 1 // children's surviving reports + own
		// Lossy links: every report needs a geometric number of
		// transmission attempts (capped); exhausted retries lose it.
		attempts, forwarded := carry, carry
		if s.cfg.LinkLossProb > 0 {
			attempts, forwarded = 0, 0
			for r := int64(0); r < carry; r++ {
				a, ok := s.transmissionAttempts()
				attempts += a
				if ok {
					forwarded++
				}
			}
		}
		// Receive cost for forwarded reports, transmit cost for every
		// attempt, plus the sensing/computation overhead.
		rxCost := float64(float64(arrived[i]) * s.perRx[i])
		txCost := float64(float64(attempts) * s.perTx[i])
		need := rxCost + txCost + float64(s.p.Overhead(i)*float64(s.cfg.PacketBits))
		idx := s.posts[i].usableMaxEnergy(round)
		if idx < 0 || s.posts[i].Nodes[idx].Energy < need {
			// Post cannot operate: all reports through it are lost.
			s.metrics.StarvedPostRounds++
			s.metrics.ReportsLost += carry
			if s.metrics.FirstLossRound < 0 {
				s.metrics.FirstLossRound = round
			}
			continue
		}
		node := &s.posts[i].Nodes[idx]
		node.Energy -= need
		roundNE += need
		if dropped := carry - forwarded; dropped > 0 {
			s.metrics.ReportsLost += dropped
			if s.metrics.FirstLossRound < 0 {
				s.metrics.FirstLossRound = round
			}
		}
		if par := s.tree.Parent[i]; par < n {
			arrived[par] += forwarded
		} else {
			s.metrics.ReportsDelivered += forwarded
			s.metrics.BitsDelivered += forwarded * int64(s.cfg.PacketBits)
		}
	}
	s.metrics.NetworkEnergy += roundNE
	s.lastRoundDelivered = s.metrics.ReportsDelivered - deliveredBefore
}

// faultPhase fires the round's faults, recording every post that lost or
// took down a node in s.touched, then runs death detection and repair
// scheduling when a node died. Only scheduled node faults read a battery
// (they pick their node by energy).
func (s *Simulator) faultPhase(round int) {
	if s.faults == nil {
		return
	}
	s.touched = s.touched[:0]
	deaths := s.metrics.NodeFailures
	s.faults.step(s, round)
	if s.metrics.NodeFailures != deaths {
		s.detectDeaths(round)
	}
}

// chargerPhase moves or charges every charger that is in service.
func (s *Simulator) chargerPhase(round int) {
	for _, ch := range s.chargers {
		if ch.downUntil >= round {
			s.metrics.ChargerDownRounds++
			continue
		}
		ch.step(s)
	}
}

// detectDeaths checks the posts a fault touched this round for a last
// death, updates the partition metrics and schedules a repair when the
// policy is enabled.
func (s *Simulator) detectDeaths(round int) {
	newDeath := false
	for _, i := range s.touched {
		if !s.deadPost[i] && s.posts[i].AliveCount() == 0 {
			s.deadPost[i] = true
			s.metrics.PostsDead++
			newDeath = true
		}
	}
	if !newDeath {
		return
	}
	// Physical partition check: can every surviving post still reach the
	// BS through survivors at maximum range?
	alive := s.aliveMask
	for i := range alive {
		alive[i] = !s.deadPost[i]
	}
	reach := s.p.SurvivorsReachable(alive)
	stranded := 0
	for i := range alive {
		if alive[i] && !reach[i] {
			stranded++
		}
	}
	s.metrics.StrandedPosts = stranded
	if stranded > 0 && s.metrics.FirstPartitionRound < 0 {
		s.metrics.FirstPartitionRound = round
	}
	if s.cfg.Repair != nil && !s.repairPending {
		s.repairPending = true
		s.repairRequested = round
		s.repairApplyAfter = round + s.cfg.Repair.LatencyRounds
	}
}

// applyRepair rebuilds the routing tree over the surviving posts and
// swaps it in, updating the repair metrics. Deaths that occurred while
// the repair was pending are healed by the same rebuild. The healer is
// constructed once on the first repair and reused for the run, so
// repeated repairs pay no graph-construction cost.
func (s *Simulator) applyRepair(round int) {
	s.repairPending = false
	if s.healer == nil && s.healerErr == nil {
		s.healer, s.healerErr = heal.NewHealer(s.p, heal.Options{
			DisableSiblingMerge: s.cfg.Repair.DisableSiblingMerge,
		})
	}
	if s.healerErr != nil {
		// Defensive: an unrepairable topology keeps the old tree; the
		// network degrades as if no repair were configured.
		return
	}
	if cap(s.aliveBuf) < len(s.posts) {
		s.aliveBuf = make([]int, len(s.posts))
	}
	aliveCounts := s.aliveBuf[:len(s.posts)]
	for i := range s.posts {
		aliveCounts[i] = s.posts[i].AliveCount()
	}
	stranded, err := s.healer.Repair(s.tree, aliveCounts, &s.repairDst)
	if err != nil {
		return
	}
	s.tree, s.repairDst = s.repairDst, s.tree
	if err := s.rebuildDerived(); err != nil {
		return
	}
	s.metrics.Repairs++
	s.metrics.RepairLatencySum += int64(round - 1 - s.repairRequested)
	s.metrics.StrandedPosts = len(stranded)
	if cost, err := s.degraded.Evaluate(s.p, aliveCounts, s.tree); err == nil {
		s.metrics.DegradedCost = cost
		if s.planCost > 0 {
			s.metrics.RepairCostInflation = cost/s.planCost - 1
		}
	}
}

// killNode permanently kills one node (fault-engine entry point).
func (s *Simulator) killNode(post, node int) {
	if !s.posts[post].Nodes[node].Alive {
		return
	}
	s.posts[post].Nodes[node].Alive = false
	s.metrics.NodeFailures++
	s.touch(post)
}

// touch records that a fault changed one of the post's nodes this round.
func (s *Simulator) touch(post int) {
	if k := len(s.touched); k == 0 || s.touched[k-1] != post {
		s.touched = append(s.touched, post)
	}
}

// transmissionAttempts draws the attempt count for one report on one
// lossy hop: geometric with success probability 1-LinkLossProb, capped at
// MaxRetries. ok reports whether the hop ultimately succeeded.
func (s *Simulator) transmissionAttempts() (attempts int64, ok bool) {
	for a := int64(1); a <= int64(s.cfg.MaxRetries); a++ {
		if s.rng.Float64() >= s.cfg.LinkLossProb {
			return a, true
		}
	}
	return int64(s.cfg.MaxRetries), false
}

// AnalyticCostPerBitRound returns the model-predicted charger energy per
// bit per reporting round for this configuration (model.Evaluate).
func (s *Simulator) AnalyticCostPerBitRound() (float64, error) {
	return model.Evaluate(s.p, s.cfg.Solution.Deploy, s.cfg.Solution.Tree)
}

// EnergyAudit is the simulator's conservation ledger (all values nJ).
type EnergyAudit struct {
	InitialStored float64 // battery charge at t=0
	Received      float64 // energy stored into batteries by charging
	Consumed      float64 // energy drained by network operation
	Residual      float64 // battery charge now (alive and dead nodes)
}

// Imbalance returns Initial + Received - Consumed - Residual, which must
// be ~0: batteries neither create nor destroy energy. (Charger-side
// dissemination exceeding Received is propagation loss plus clipping,
// accounted separately in Metrics.ChargerEnergy/ChargerWasted.)
func (a EnergyAudit) Imbalance() float64 {
	return a.InitialStored + a.Received - a.Consumed - a.Residual
}

// AuditEnergy computes the conservation ledger for the run so far.
func (s *Simulator) AuditEnergy() EnergyAudit {
	var residual float64
	for i := range s.posts {
		for j := range s.posts[i].Nodes {
			residual += s.posts[i].Nodes[j].Energy
		}
	}
	return EnergyAudit{
		InitialStored: s.cfg.BatteryCapacity * s.cfg.InitialChargeFrac * float64(s.p.Nodes),
		Received:      s.metrics.energyStored,
		Consumed:      s.metrics.NetworkEnergy,
		Residual:      residual,
	}
}
