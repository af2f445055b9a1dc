package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"wrsn/internal/geom"
	"wrsn/internal/model"
)

// The event-driven core's contract (event.go): for every configuration
// without per-round randomness in the reporting path — fault-free,
// scheduled or stochastic faults — it must be bit-identical to the
// per-round reference stepper in every metric, every battery, every
// charger and every trace row. These tests enforce it.

// cloneConfig deep-copies the pointer-valued sub-configs so two runs of
// the same scenario never share mutable state.
func cloneConfig(cfg Config) Config {
	out := cfg
	if cfg.Charger != nil {
		c := *cfg.Charger
		out.Charger = &c
	}
	if cfg.Faults != nil {
		f := *cfg.Faults
		out.Faults = &f
	}
	if cfg.Repair != nil {
		r := *cfg.Repair
		out.Repair = &r
	}
	return out
}

// newCore builds one configuration under the given stepper and applies
// prep (nil for none) to the fresh simulator.
func newCore(t *testing.T, cfg Config, kind StepperKind, prep func(*Simulator)) *Simulator {
	t.Helper()
	c := cloneConfig(cfg)
	c.Stepper = kind
	s, err := New(c)
	if err != nil {
		t.Fatalf("New(%q): %v", kind, err)
	}
	if prep != nil {
		prep(s)
	}
	return s
}

// runCore runs one configuration under the given stepper with a CSV
// tracer (sampling every `every` rounds) and an availability tracer
// attached, and returns the simulator, metrics and trace output.
func runCore(t *testing.T, cfg Config, kind StepperKind, prep func(*Simulator), rounds, every int) (*Simulator, *Metrics, []byte, *AvailabilityTracer) {
	t.Helper()
	s := newCore(t, cfg, kind, prep)
	var csv bytes.Buffer
	csvTr := NewCSVTracer(&csv, every)
	avail := &AvailabilityTracer{}
	s.SetTracer(TracerFunc(func(round int, s *Simulator) {
		csvTr.Observe(round, s)
		avail.Observe(round, s)
	}))
	m, err := s.Run(rounds)
	if err != nil {
		t.Fatalf("Run(%q): %v", kind, err)
	}
	if err := csvTr.Flush(); err != nil {
		t.Fatalf("Flush(%q): %v", kind, err)
	}
	return s, m, csv.Bytes(), avail
}

// assertIdentical compares every observable of an exact and an event run
// bit-for-bit.
func assertIdentical(t *testing.T, name string, exact, event *Simulator, me, mv *Metrics, csvE, csvV []byte, availE, availV *AvailabilityTracer) {
	t.Helper()
	assertSameState(t, name, exact, event, me, mv)
	if !bytes.Equal(csvE, csvV) {
		t.Errorf("%s: CSV traces differ (%d vs %d bytes)", name, len(csvE), len(csvV))
		reportFirstCSVDiff(t, csvE, csvV)
	}
	if len(availE.Rounds) != len(availV.Rounds) {
		t.Fatalf("%s: availability series length: exact %d event %d", name, len(availE.Rounds), len(availV.Rounds))
	}
	for i := range availE.Rounds {
		if availE.Rounds[i] != availV.Rounds[i] ||
			math.Float64bits(availE.Series[i]) != math.Float64bits(availV.Series[i]) {
			t.Fatalf("%s: availability sample %d: exact (%d, %v) event (%d, %v)",
				name, i, availE.Rounds[i], availE.Series[i], availV.Rounds[i], availV.Series[i])
		}
	}
}

// assertSameState compares the metrics, every battery's bits, the
// routing tree and the chargers of an exact and an event run.
func assertSameState(t *testing.T, name string, exact, event *Simulator, me, mv *Metrics) {
	t.Helper()
	if *me != *mv {
		t.Errorf("%s: metrics diverge:\nexact: %+v\nevent: %+v", name, *me, *mv)
	}
	for i := range exact.posts {
		ne, nv := exact.posts[i].Nodes, event.posts[i].Nodes
		for j := range ne {
			if ne[j].Alive != nv[j].Alive || ne[j].DownUntil != nv[j].DownUntil ||
				math.Float64bits(ne[j].Energy) != math.Float64bits(nv[j].Energy) {
				t.Fatalf("%s: post %d node %d diverges: exact %+v event %+v", name, i, j, ne[j], nv[j])
			}
		}
	}
	for i := range exact.tree.Parent {
		if exact.tree.Parent[i] != event.tree.Parent[i] {
			t.Errorf("%s: tree parent[%d]: exact %d event %d", name, i, exact.tree.Parent[i], event.tree.Parent[i])
		}
	}
	for i := range exact.chargers {
		ce, cv := exact.chargers[i], event.chargers[i]
		if ce.pos != cv.pos || ce.target != cv.target || ce.downUntil != cv.downUntil {
			t.Errorf("%s: charger %d diverges: exact pos=%v target=%d down=%d, event pos=%v target=%d down=%d",
				name, i, ce.pos, ce.target, ce.downUntil, cv.pos, cv.target, cv.downUntil)
		}
	}
}

func reportFirstCSVDiff(t *testing.T, a, b []byte) {
	t.Helper()
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			t.Errorf("first differing row %d:\nexact: %s\nevent: %s", i, la[i], lb[i])
			return
		}
	}
}

// runUntraced runs one configuration under the given stepper with no
// tracer attached, the way lifetime studies and the figures run it.
func runUntraced(t *testing.T, cfg Config, kind StepperKind, rounds int) (*Simulator, *Metrics) {
	t.Helper()
	return runUntracedPrep(t, cfg, kind, nil, rounds)
}

// runUntracedPrep is runUntraced with prep applied to the simulator.
func runUntracedPrep(t *testing.T, cfg Config, kind StepperKind, prep func(*Simulator), rounds int) (*Simulator, *Metrics) {
	t.Helper()
	s := newCore(t, cfg, kind, prep)
	m, err := s.Run(rounds)
	if err != nil {
		t.Fatalf("Run(%q): %v", kind, err)
	}
	return s, m
}

// diffRunUntraced asserts bit-identity between the cores on one scenario
// with no tracer attached: the event core then replays a whole span's
// rotation post by post instead of one round per call.
func diffRunUntraced(t *testing.T, name string, cfg Config, rounds int) {
	t.Helper()
	diffRunUntracedPrep(t, name, cfg, nil, rounds)
}

// diffRunUntracedPrep is diffRunUntraced with prep applied to both
// simulators.
func diffRunUntracedPrep(t *testing.T, name string, cfg Config, prep func(*Simulator), rounds int) {
	t.Helper()
	exact, me := runUntracedPrep(t, cfg, StepperExact, prep, rounds)
	event, mv := runUntracedPrep(t, cfg, StepperEvent, prep, rounds)
	assertSameState(t, name+"/untraced", exact, event, me, mv)
}

// diffRun asserts bit-identity between the cores on one scenario: with
// no tracer, and with the CSV tracer both at every round and at a
// coarser stride (stride sampling must not change what the event core
// replays).
func diffRun(t *testing.T, name string, cfg Config, rounds int) {
	t.Helper()
	diffRunPrep(t, name, cfg, nil, rounds)
}

// diffRunPrep is diffRun with prep applied to every simulator it builds.
func diffRunPrep(t *testing.T, name string, cfg Config, prep func(*Simulator), rounds int) {
	t.Helper()
	diffRunUntracedPrep(t, name, cfg, prep, rounds)
	for _, every := range []int{1, 7} {
		exact, me, csvE, availE := runCore(t, cfg, StepperExact, prep, rounds, every)
		event, mv, csvV, availV := runCore(t, cfg, StepperEvent, prep, rounds, every)
		assertIdentical(t, fmt.Sprintf("%s/every=%d", name, every), exact, event, me, mv, csvE, csvV, availE, availV)
	}
}

func TestEventCoreBitIdenticalHealthy(t *testing.T) {
	p, sol := testNetwork(t, 11, 250, 15, 60)
	diffRun(t, "urgency", Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 5e5, SpeedPerRound: 15, Policy: PolicyUrgency},
		Seed:     1,
	}, 4000)
	diffRun(t, "round-robin", Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 5e5, SpeedPerRound: 15, Policy: PolicyRoundRobin},
		Seed:     1,
	}, 3000)
	diffRun(t, "tour-fleet", Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 5e5, SpeedPerRound: 15, Policy: PolicyTour},
		Chargers: 3,
		Seed:     1,
	}, 3000)
}

// TestEventCoreChargerStopsShort sets the charger's speed so that its
// fifth step from the BS stops 5e-10 m short of its first target, inside
// step()'s 1e-9 m parking tolerance: the stepper charges from there
// without covering the rest, and the event core's travel replay must end
// the span at that stop instead of carrying the charger onto the post.
func TestEventCoreChargerStopsShort(t *testing.T) {
	p, sol := testNetwork(t, 11, 250, 15, 60)
	dest := p.Posts[0] // round-robin's first pick: every post starts needy
	cfg := Config{
		Problem:  p,
		Solution: sol,
		Charger: &ChargerConfig{
			PowerPerRound: 5e5,
			SpeedPerRound: (geom.Dist(p.BS, dest) - 5e-10) / 5,
			Policy:        PolicyRoundRobin,
		},
		InitialChargeFrac: 0.4,
		Seed:              1,
	}
	s, _ := runUntraced(t, cfg, StepperExact, 5)
	c := s.chargers[0]
	if d := geom.Dist(c.pos, dest); c.target != 0 || c.pos == dest || d > 1e-9 {
		t.Fatalf("after 5 rounds the charger targets %d at %v, %g m from post 0; want a stop short of it within 1e-9 m", c.target, c.pos, d)
	}
	diffRun(t, "stops-short", cfg, 300)
}

func TestEventCoreBitIdenticalDepletion(t *testing.T) {
	// No charger: the network drains, posts starve one by one, and the
	// run crosses full depletion — every starvation onset must land on
	// the same round in both cores.
	p, sol := testNetwork(t, 12, 250, 12, 48)
	diffRun(t, "depletion", Config{
		Problem:  p,
		Solution: sol,
		Seed:     3,
	}, 2*DefaultBatteryRounds)
}

func TestEventCoreBitIdenticalScheduledFaults(t *testing.T) {
	p, sol := testNetwork(t, 13, 250, 15, 60)
	base := Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 5e5, SpeedPerRound: 15, Policy: PolicyUrgency},
		Seed:     7,
	}

	killPost := base
	killPost.Faults = &FaultConfig{Schedule: FaultSchedule{
		{Round: 300, Kind: FaultKillNode, Post: 2},
		{Round: 500, Kind: FaultKillPost, Post: 4},
		{Round: 500, Kind: FaultKillPost, Post: 9},
		{Round: 1400, Kind: FaultKillPost, Post: 1},
	}}
	killPost.Repair = &RepairConfig{LatencyRounds: 10}
	diffRun(t, "kill-post+repair", killPost, 2500)

	transient := base
	transient.Faults = &FaultConfig{Schedule: FaultSchedule{
		{Round: 200, Kind: FaultTransientNode, Post: 3, Duration: 80},
		{Round: 210, Kind: FaultTransientNode, Post: 3, Duration: 40},
		{Round: 600, Kind: FaultTransientNode, Post: 7, Duration: 250},
	}}
	diffRun(t, "transient", transient, 1500)

	breakdown := base
	breakdown.Chargers = 2
	breakdown.Charger = &ChargerConfig{PowerPerRound: 5e5, SpeedPerRound: 15, Policy: PolicyUrgency}
	breakdown.Faults = &FaultConfig{Schedule: FaultSchedule{
		{Round: 100, Kind: FaultChargerDown, Charger: 0, Duration: 400},
		{Round: 350, Kind: FaultChargerDown, Charger: 1, Duration: 100},
	}}
	diffRun(t, "charger-down", breakdown, 1500)

	mixed := base
	mixed.Repair = &RepairConfig{LatencyRounds: 5}
	mixed.Faults = &FaultConfig{Schedule: FaultSchedule{
		{Round: 150, Kind: FaultTransientNode, Post: 1, Duration: 60},
		{Round: 300, Kind: FaultKillPost, Post: 6},
		{Round: 320, Kind: FaultChargerDown, Charger: 0, Duration: 200},
		{Round: 800, Kind: FaultKillNode, Post: 2},
		{Round: 800, Kind: FaultTransientNode, Post: 2, Duration: 100},
	}}
	diffRun(t, "mixed", mixed, 2000)
}

// TestEventCoreBitIdenticalProperty fuzzes scenario shapes: random
// topologies, charger policies, fleets and scheduled fault mixes, half of
// them with every stochastic hazard and repair on top, each checked for
// bit-identity.
func TestEventCoreBitIdenticalProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	policies := []ChargerPolicy{PolicyUrgency, PolicyRoundRobin, PolicyTour}
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		nPosts := 8 + rng.Intn(7)
		p, sol := testNetwork(t, int64(40+trial), 150+rng.Float64()*100, nPosts, 4*nPosts)
		cfg := Config{
			Problem:  p,
			Solution: sol,
			Seed:     int64(trial),
		}
		if rng.Intn(4) > 0 {
			cfg.Charger = &ChargerConfig{
				PowerPerRound: 2e5 + rng.Float64()*8e5,
				SpeedPerRound: 5 + rng.Float64()*25,
				Policy:        policies[rng.Intn(len(policies))],
			}
			cfg.Chargers = 1 + rng.Intn(3)
		}
		var sched FaultSchedule
		for k := 0; k < rng.Intn(6); k++ {
			round := 1 + rng.Intn(1200)
			switch rng.Intn(4) {
			case 0:
				sched = append(sched, FaultEvent{Round: round, Kind: FaultKillNode, Post: rng.Intn(nPosts)})
			case 1:
				sched = append(sched, FaultEvent{Round: round, Kind: FaultKillPost, Post: rng.Intn(nPosts)})
			case 2:
				sched = append(sched, FaultEvent{Round: round, Kind: FaultTransientNode, Post: rng.Intn(nPosts), Duration: 1 + rng.Intn(300)})
			case 3:
				if cfg.Charger != nil {
					sched = append(sched, FaultEvent{Round: round, Kind: FaultChargerDown, Charger: rng.Intn(cfg.Chargers), Duration: 1 + rng.Intn(300)})
				}
			}
		}
		if len(sched) > 0 {
			cfg.Faults = &FaultConfig{Schedule: sched}
			if rng.Intn(2) == 0 {
				cfg.Repair = &RepairConfig{LatencyRounds: rng.Intn(20)}
			}
		}
		rounds := 800 + rng.Intn(800)
		if rng.Intn(2) == 0 {
			// Every stochastic hazard on top of the schedule, with repair.
			fc := FaultConfig{
				Schedule:            sched,
				NodeFailurePerRound: rng.Float64() * 5e-4,
				TransientPerRound:   rng.Float64() * 1e-3,
				TransientMeanRounds: 10 + rng.Float64()*90,
				PostOutagePerRound:  rng.Float64() * 2e-3,
				OutageRadius:        rng.Float64() * 50,
			}
			if cfg.Charger != nil {
				fc.ChargerFailurePerRound = rng.Float64() * 2e-3
				fc.ChargerRepairRounds = 1 + rng.Intn(200)
			}
			cfg.Faults = &fc
			cfg.Repair = &RepairConfig{LatencyRounds: rng.Intn(20)}
		}
		diffRun(t, fmt.Sprintf("property-%d", trial), cfg, rounds)
	}
}

// TestEventCoreBitIdenticalStochastic runs every stochastic hazard at
// once — permanent failures, transients, correlated outages and charger
// breakdowns, with online repair — over many seeds: both cores fire the
// same sampled onsets, so every seed must match bit for bit.
func TestEventCoreBitIdenticalStochastic(t *testing.T) {
	p, sol := testNetwork(t, 14, 250, 15, 60)
	cfg := Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 5e5, SpeedPerRound: 15, Policy: PolicyUrgency},
		Chargers: 2,
		Faults: &FaultConfig{
			NodeFailurePerRound:    2e-4,
			TransientPerRound:      5e-4,
			TransientMeanRounds:    40,
			PostOutagePerRound:     1e-3,
			OutageRadius:           30,
			ChargerFailurePerRound: 1e-3,
			ChargerRepairRounds:    50,
		},
		Repair: &RepairConfig{LatencyRounds: 10},
	}
	for seed := int64(0); seed < 20; seed++ {
		cfg.Seed = seed
		diffRun(t, fmt.Sprintf("all-hazards/seed=%d", seed), cfg, 1500)
	}
}

// lifetimeConfig is a lifetime-shaped run: 100 posts, six nodes per post
// on average, a slow charger, stochastic failures and transients, and
// online repair with a 10-round latency.
func lifetimeConfig(t *testing.T) Config {
	t.Helper()
	p, sol := testNetwork(t, 20, 500, 100, 600)
	return Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 1e9, SpeedPerRound: 25},
		Faults: &FaultConfig{
			NodeFailurePerRound: 1e-4,
			TransientPerRound:   1e-4,
			TransientMeanRounds: 50,
		},
		Repair: &RepairConfig{LatencyRounds: 10},
		Seed:   1,
	}
}

// TestEventCoreBitIdenticalLifetime checks the lifetime shape over three
// battery lifetimes with no tracer, the way lifetime studies run it.
func TestEventCoreBitIdenticalLifetime(t *testing.T) {
	diffRunUntraced(t, "lifetime", lifetimeConfig(t), 3*DefaultBatteryRounds)
}

// TestEventCoreCertainFaultsFire pins the geometric inversion's p=1 edge
// case: a certain per-round hazard must fire on round 1.
func TestEventCoreCertainFaultsFire(t *testing.T) {
	p, sol := testNetwork(t, 15, 200, 8, 32)
	for _, kind := range []StepperKind{StepperExact, StepperEvent} {
		s, err := New(Config{
			Problem:  p,
			Solution: sol,
			Faults:   &FaultConfig{NodeFailurePerRound: 1},
			Seed:     1,
			Stepper:  kind,
		})
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		m, err := s.Run(3)
		if err != nil {
			t.Fatalf("Run(%q): %v", kind, err)
		}
		if m.NodeFailures != int64(p.Nodes) {
			t.Errorf("%q: %d of %d nodes failed under p=1", kind, m.NodeFailures, p.Nodes)
		}
	}
}

func TestEventCoreDeterministicPerSeed(t *testing.T) {
	p, sol := testNetwork(t, 16, 250, 10, 40)
	cfg := Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 5e5, SpeedPerRound: 15},
		Faults: &FaultConfig{
			NodeFailurePerRound: 1e-4,
			TransientPerRound:   5e-4,
		},
		Seed:    42,
		Stepper: StepperEvent,
	}
	run := func() Metrics {
		s, err := New(cloneConfig(cfg))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		m, err := s.Run(2000)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return *m
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different event-core runs:\n%+v\n%+v", a, b)
	}
}

func TestStepperSelection(t *testing.T) {
	p, sol := testNetwork(t, 17, 200, 8, 32)
	base := Config{Problem: p, Solution: sol, MaxRetries: 4}

	lossy := base
	lossy.LinkLossProb = 0.1
	lossy.Stepper = StepperEvent
	if _, err := New(lossy); err == nil {
		t.Error("StepperEvent accepted a lossy-link configuration")
	}

	lossy.Stepper = StepperAuto
	s, err := New(lossy)
	if err != nil {
		t.Fatalf("StepperAuto rejected a lossy config: %v", err)
	}
	if s.eventMode {
		t.Error("StepperAuto picked the event core for a lossy config")
	}

	clean := base
	s, err = New(clean)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !s.eventMode {
		t.Error("StepperAuto did not pick the event core for an eligible config")
	}

	bogus := base
	bogus.Stepper = StepperKind("per-round")
	if _, err := New(bogus); err == nil {
		t.Error("unknown stepper kind accepted")
	}
}

// rotationNetwork is testNetwork with every post holding exactly `per`
// nodes, so each post's rotation spreads payments over `per` batteries.
// The routing tree does not depend on the deployment and stays valid.
func rotationNetwork(t testing.TB, seed int64, side float64, n, per int) (*model.Problem, model.Solution) {
	t.Helper()
	p, sol := testNetwork(t, seed, side, n, per*n)
	sol.Deploy = make(model.Deployment, n)
	for i := range sol.Deploy {
		sol.Deploy[i] = per
	}
	return p, sol
}

// TestEventCoreBitIdenticalRotation covers the regime where the
// idle-charger horizon counts payments over a post's whole rotation:
// six nodes per post, a slow charger that fills a post in one round,
// scheduled faults with repair, over three battery lifetimes. Batteries
// start near the target so many posts turn needy together and the
// policies' choices differ.
func TestEventCoreBitIdenticalRotation(t *testing.T) {
	p, sol := rotationNetwork(t, 18, 300, 25, 6)
	for _, policy := range []ChargerPolicy{PolicyUrgency, PolicyRoundRobin, PolicyTour} {
		diffRun(t, "rotation-"+string(policy), Config{
			Problem:  p,
			Solution: sol,
			Charger:  &ChargerConfig{PowerPerRound: 1e9, SpeedPerRound: 25, Policy: policy},
			Faults: &FaultConfig{Schedule: FaultSchedule{
				{Round: 700, Kind: FaultKillNode, Post: 3},
				{Round: 1900, Kind: FaultTransientNode, Post: 5, Duration: 120},
				{Round: 2600, Kind: FaultKillPost, Post: 8},
				{Round: 3100, Kind: FaultChargerDown, Charger: 0, Duration: 150},
				{Round: 4400, Kind: FaultKillPost, Post: 11},
			}},
			Repair:            &RepairConfig{LatencyRounds: 10},
			InitialChargeFrac: 0.6,
			Seed:              5,
		}, 3*DefaultBatteryRounds)
	}
}

// TestIdleHorizonRotationBound sets batteries by hand, asks idleHorizon
// for its certificate, then steps the exact core until the idle charger
// first picks a target. No certified round may pick one, and the first
// pick must come within m+3 rounds of the horizon (m = nodes at the
// binding post): the min-based bound, which ignores the rotation, would
// fall short by a factor of m and fail the second check.
func TestIdleHorizonRotationBound(t *testing.T) {
	p, sol := rotationNetwork(t, 19, 250, 10, 6)
	const post = 4
	setup := func(t *testing.T) (*Simulator, *chargerState) {
		t.Helper()
		s, err := New(Config{
			Problem:  p,
			Solution: sol,
			Charger:  &ChargerConfig{PowerPerRound: 1e9, SpeedPerRound: 25},
			Seed:     1,
			Stepper:  StepperEvent,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, s.chargers[0]
	}
	// check certifies the current state and steps the exact core.
	check := func(t *testing.T, s *Simulator, c *chargerState, m int) {
		t.Helper()
		s.computeSpan()
		h := s.idleHorizon(c)
		for r := 1; r <= h+m+3; r++ {
			s.step()
			if c.target < 0 {
				continue
			}
			if r <= h {
				t.Fatalf("round %d picked post %d inside the certified horizon %d", r, c.target, h)
			}
			return
		}
		t.Fatalf("horizon %d: no target picked within m+3 = %d further rounds", h, m+3)
	}
	// ulpEdge is the smallest energy pickTarget does not call needy.
	ulpEdge := func(s *Simulator, c *chargerState) float64 {
		capacity := s.cfg.BatteryCapacity
		e := c.cfg.TargetFrac * capacity
		for e/capacity < c.cfg.TargetFrac {
			e = math.Nextafter(e, math.Inf(1))
		}
		for prev := math.Nextafter(e, 0); prev/capacity >= c.cfg.TargetFrac; prev = math.Nextafter(e, 0) {
			e = prev
		}
		return e
	}
	// setPost computes the post's per-round need and sets node j to
	// level(j, target, need).
	setPost := func(s *Simulator, c *chargerState, i int, level func(j int, target, need float64) float64) {
		s.computeSpan()
		target, need := c.cfg.TargetFrac*s.cfg.BatteryCapacity, s.span.need[i]
		for j := range s.posts[i].Nodes {
			s.posts[i].Nodes[j].Energy = level(j, target, need)
		}
	}

	t.Run("all-equal", func(t *testing.T) {
		s, c := setup(t)
		setPost(s, c, post, func(j int, target, need float64) float64 { return target + 5.5*need })
		check(t, s, c, 6)
	})
	t.Run("spread", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 20; trial++ {
			s, c := setup(t)
			setPost(s, c, post, func(j int, target, need float64) float64 {
				return target + rng.Float64()*12*need
			})
			check(t, s, c, 6)
		}
	})
	t.Run("ulp-edge", func(t *testing.T) {
		s, c := setup(t)
		edge := ulpEdge(s, c)
		setPost(s, c, post, func(j int, target, need float64) float64 {
			if j == 2 {
				return edge
			}
			return target + 4.5*need
		})
		check(t, s, c, 6)
	})
	t.Run("ulp-edge-needy", func(t *testing.T) {
		s, c := setup(t)
		below := math.Nextafter(ulpEdge(s, c), 0)
		setPost(s, c, post, func(j int, target, need float64) float64 {
			if j == 2 {
				return below
			}
			return target + 4.5*need
		})
		s.computeSpan()
		if h := s.idleHorizon(c); h != 0 {
			t.Fatalf("a needy post certified %d idle rounds", h)
		}
		s.step()
		if c.target != post {
			t.Fatalf("needy post %d not picked on the next round (target %d)", post, c.target)
		}
	})
	t.Run("m=1", func(t *testing.T) {
		s, c := setup(t)
		setPost(s, c, post, func(j int, target, need float64) float64 { return target + 7.5*need })
		for j := 1; j < len(s.posts[post].Nodes); j++ {
			s.posts[post].Nodes[j].Alive = false
		}
		check(t, s, c, 1)
	})
	t.Run("frozen", func(t *testing.T) {
		// A target between two posts' per-round needs lets the busier
		// post starve without ever looking needy: its batteries never
		// move, so it must not limit the horizon. The busiest post is
		// frozen and the least busy one binds.
		s, c := setup(t)
		s.computeSpan()
		frozen, bind := 0, 0
		for i, need := range s.span.need {
			if need > s.span.need[frozen] {
				frozen = i
			}
			if need < s.span.need[bind] {
				bind = i
			}
		}
		target := (s.span.need[frozen] + s.span.need[bind]) / 2
		c.cfg.TargetFrac = target / s.cfg.BatteryCapacity
		setPost(s, c, frozen, func(j int, target, need float64) float64 { return (target + need) / 2 })
		setPost(s, c, bind, func(j int, target, need float64) float64 { return target + 3.5*need })
		s.computeSpan()
		if s.span.op[frozen] {
			t.Fatalf("post %d still operational", frozen)
		}
		before := append([]Node(nil), s.posts[frozen].Nodes...)
		check(t, s, c, 6)
		for j, nd := range s.posts[frozen].Nodes {
			if nd != before[j] {
				t.Fatalf("frozen post's node %d moved: %+v -> %+v", j, before[j], nd)
			}
		}
	})
}

// TestEventCoreSpanShare pins how much of a lifetime-shaped run (three
// battery lifetimes) the event core fast-forwards. With the idle-charger
// horizon bounded by the weakest node alone, 61% of rounds ran through
// step(); with every sampled fault onset ending its span, 16%.
func TestEventCoreSpanShare(t *testing.T) {
	cfg := lifetimeConfig(t)
	cfg.Stepper = StepperEvent
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(3 * DefaultBatteryRounds)
	if err != nil {
		t.Fatal(err)
	}
	st := s.CoreStats()
	t.Logf("%+v over %d rounds", st, m.Rounds)
	if st.ReducedRounds+st.EventRounds != int64(m.Rounds) {
		t.Fatalf("core stats %+v do not add up to %d rounds", st, m.Rounds)
	}
	if share := float64(st.EventRounds) / float64(m.Rounds); share > 0.10 {
		t.Errorf("%.1f%% of rounds ran through step() (%+v), want <= 10%%", 100*share, st)
	}
}

// TestEventCoreRealisationPin pins one stochastic lifetime-shaped run
// (lifetimeConfig) to the metrics and battery bits the event core
// produced before its replay was made post-major, its horizons were
// folded into the span snapshot and its sampled faults moved inside
// spans. Those changes must alter no realisation: the same RNG draws and
// the same float operations. The core counters are pinned too; they
// move only when a horizon or a span boundary does.
// amd64 only: math.Hypot
// and math.Log, which the run's geometry and fault sampling use, have
// amd64 assembly and may round differently elsewhere.
func TestEventCoreRealisationPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned on amd64, running on %s", runtime.GOARCH)
	}
	cfg := lifetimeConfig(t)
	cfg.Stepper = StepperEvent
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(3 * DefaultBatteryRounds)
	if err != nil {
		t.Fatal(err)
	}
	want := Metrics{
		Rounds:              6000,
		ReportsDelivered:    576251,
		ReportsLost:         23749,
		BitsDelivered:       576251000,
		NetworkEnergy:       math.Float64frombits(0x42611bd73431d200),
		ChargerEnergy:       math.Float64frombits(0x422083b068d32000),
		ChargerWasted:       math.Float64frombits(0x4204b1d7b9b98000),
		ChargerDistance:     math.Float64frombits(0x40cf77f1a8622103),
		ChargerVisits:       85,
		NodeFailures:        291,
		FirstLossRound:      347,
		StarvedPostRounds:   23749,
		TransientFaults:     246,
		PostsDead:           12,
		FirstPartitionRound: -1,
		Repairs:             12,
		RepairLatencySum:    120,
		DegradedCost:        math.Float64frombits(0x40c6d628bcb525ae),
		RepairCostInflation: math.Float64frombits(0x3fe6ba9fc1a5445a),
		postCount:           100,
		energyStored:        math.Float64frombits(0x425b3fb65abed000),
	}
	if *m != want {
		t.Errorf("metrics:\n got %+v\nwant %+v", *m, want)
	}
	if got, want := s.CoreStats(), (CoreStats{Spans: 411, ReducedRounds: 5612, EventRounds: 388}); got != want {
		t.Errorf("core stats: got %+v, want %+v", got, want)
	}
	h := fnv.New64a()
	var buf [8]byte
	for i := range s.posts {
		for _, nd := range s.posts[i].Nodes {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(nd.Energy))
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); got != 0xaf814f7cc496daa8 {
		t.Errorf("battery bits hash %#016x, want 0xaf814f7cc496daa8", got)
	}
}
