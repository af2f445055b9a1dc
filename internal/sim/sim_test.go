package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/energy"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/solver"
)

// testNetwork builds a solved random instance ready for simulation.
func testNetwork(t testing.TB, seed int64, side float64, n, m int) (*model.Problem, model.Solution) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	field := geom.Square(side)
	for attempt := 0; attempt < 100; attempt++ {
		p := &model.Problem{
			Posts:    field.RandomPoints(rng, n),
			BS:       field.Corner(),
			Nodes:    m,
			Energy:   energy.Default(),
			Charging: charging.Default(),
		}
		if p.Validate() != nil {
			continue
		}
		res, err := solver.RFH(context.Background(), p, solver.RFHOptions{Iterations: solver.DefaultRFHIterations})
		if err != nil {
			t.Fatalf("iterative RFH: %v", err)
		}
		return p, res.Solution
	}
	t.Fatalf("no connected instance after 100 attempts (seed=%d)", seed)
	return nil, model.Solution{}
}

func TestEmpiricalCostConvergesToAnalytic(t *testing.T) {
	p, sol := testNetwork(t, 3, 300, 20, 80)
	s, err := New(Config{
		Problem:  p,
		Solution: sol,
		Charger: &ChargerConfig{
			// Generous charger: it can always keep up, so the long-run
			// dissemination tracks consumption exactly.
			PowerPerRound: 1e9,
			SpeedPerRound: 1e6, // effectively teleports: isolates energy accounting
			FillToFrac:    0.95,
			TargetFrac:    0.90,
		},
		PacketBits: 1000,
		// Start inside the charger's working band so the measurement
		// window carries no initial-surplus bias.
		InitialChargeFrac: 0.93,
		Seed:              1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const rounds = 20000
	metrics, err := s.Run(rounds)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if metrics.ReportsLost != 0 {
		t.Fatalf("lost %d reports with an over-provisioned charger", metrics.ReportsLost)
	}
	analytic, err := s.AnalyticCostPerBitRound()
	if err != nil {
		t.Fatalf("analytic: %v", err)
	}
	empirical := metrics.EmpiricalCostPerBitRound(1000)
	rel := math.Abs(empirical-analytic) / analytic
	t.Logf("analytic=%.3f nJ/bit-round empirical=%.3f rel=%.3f%% wasted=%.1f nJ",
		analytic, empirical, rel*100, metrics.ChargerWasted)
	// The charger tops up to FillToFrac (not 100%), so dissemination can
	// lag consumption by at most the batteries' working band; with 5000
	// rounds and ~2000-round batteries a 5% tolerance is conservative.
	if rel > 0.05 {
		t.Errorf("empirical cost %.3f deviates %.1f%% from analytic %.3f", empirical, rel*100, analytic)
	}
}

func TestNetworkDiesWithoutCharger(t *testing.T) {
	p, sol := testNetwork(t, 4, 250, 15, 45)
	s, err := New(Config{Problem: p, Solution: sol, PacketBits: 1000, Seed: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	metrics, err := s.Run(3 * DefaultBatteryRounds)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if metrics.ReportsLost == 0 {
		t.Fatal("network survived indefinitely without any charger")
	}
	if metrics.FirstLossRound < 0 {
		t.Fatal("reports lost but FirstLossRound unset")
	}
	// The busiest post drains a battery in <= DefaultBatteryRounds per
	// node; with rotation the post survives roughly count*battery rounds.
	if metrics.FirstLossRound > 2*DefaultBatteryRounds*sol.Deploy.Max() {
		t.Errorf("first loss at round %d is implausibly late", metrics.FirstLossRound)
	}
	if metrics.ChargerEnergy != 0 {
		t.Errorf("charger disabled but disseminated %.1f nJ", metrics.ChargerEnergy)
	}
}

func TestRotationBalancesResidualEnergy(t *testing.T) {
	p, sol := testNetwork(t, 5, 250, 12, 60)
	s, err := New(Config{Problem: p, Solution: sol, PacketBits: 1000, Seed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(500); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, post := range s.Posts() {
		if len(post.Nodes) < 2 {
			continue
		}
		min, max := math.Inf(1), math.Inf(-1)
		for _, nd := range post.Nodes {
			min = math.Min(min, nd.Energy)
			max = math.Max(max, nd.Energy)
		}
		// Rotation keeps nodes within one round's drain of each other.
		spread := max - min
		perRound := s.drain[i]
		if spread > perRound+1e-6 {
			t.Errorf("post %d residual spread %.1f nJ exceeds one round's drain %.1f nJ", i, spread, perRound)
		}
	}
}

func TestFailureInjectionDegradesDelivery(t *testing.T) {
	p, sol := testNetwork(t, 6, 200, 15, 45)
	run := func(failureRate float64) *Metrics {
		s, err := New(Config{
			Problem:    p,
			Solution:   sol,
			PacketBits: 1000,
			Faults:     &FaultConfig{NodeFailurePerRound: failureRate},
			Seed:       4,
			Charger: &ChargerConfig{
				PowerPerRound: 1e9,
				SpeedPerRound: 1e6,
			},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		m, err := s.Run(4000)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return m
	}
	healthy := run(0)
	// NodeFailurePerRound is per-node: 0.002 kills roughly one node every 11
	// rounds across 45 nodes, stripping posts well within 4000 rounds.
	failing := run(0.002)
	if healthy.DeliveryRatio() != 1 {
		t.Fatalf("healthy run delivery ratio %.3f, want 1", healthy.DeliveryRatio())
	}
	if failing.NodeFailures == 0 {
		t.Fatal("failure injection produced no failures")
	}
	if failing.DeliveryRatio() >= 1 {
		t.Errorf("with %d node failures delivery stayed perfect (%d posts, %d nodes); expected degradation",
			failing.NodeFailures, p.N(), p.Nodes)
	}
	t.Logf("healthy=%.3f failing=%.3f (failures=%d)", healthy.DeliveryRatio(), failing.DeliveryRatio(), failing.NodeFailures)
}

func TestChargerTravelsFiniteDistance(t *testing.T) {
	p, sol := testNetwork(t, 7, 200, 10, 40)
	s, err := New(Config{
		Problem:  p,
		Solution: sol,
		Charger: &ChargerConfig{
			PowerPerRound: 5e7,
			SpeedPerRound: 10,
		},
		PacketBits: 1000,
		Seed:       5,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := s.Run(3000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.ChargerDistance <= 0 {
		t.Error("charger never moved despite finite speed")
	}
	if m.ChargerVisits == 0 {
		t.Error("charger completed no charging sessions")
	}
	t.Logf("distance=%.1fm visits=%d delivery=%.3f", m.ChargerDistance, m.ChargerVisits, m.DeliveryRatio())
}

// TestEnergyConservation: the battery ledger balances exactly in every
// configuration — with charger, with fleet, with failures, without
// charger. Silent energy leaks are the classic simulator bug; this pins
// them to floating-point noise.
func TestEnergyConservation(t *testing.T) {
	p, sol := testNetwork(t, 19, 200, 12, 48)
	configs := map[string]Config{
		"no charger": {Problem: p, Solution: sol, Seed: 1},
		"charged": {Problem: p, Solution: sol, Seed: 1,
			Charger: &ChargerConfig{PowerPerRound: 5e6, SpeedPerRound: 10}},
		"fleet with failures": {Problem: p, Solution: sol, Seed: 1,
			Charger:  &ChargerConfig{PowerPerRound: 2e6, SpeedPerRound: 8, Policy: PolicyTour},
			Chargers: 2,
			Faults:   &FaultConfig{NodeFailurePerRound: 0.01}},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(3000); err != nil {
				t.Fatal(err)
			}
			audit := s.AuditEnergy()
			scale := audit.InitialStored + audit.Received
			if rel := math.Abs(audit.Imbalance()) / scale; rel > 1e-9 {
				t.Errorf("energy imbalance %.3f nJ (%.2e relative): %+v",
					audit.Imbalance(), rel, audit)
			}
			if audit.Consumed <= 0 || audit.Residual <= 0 {
				t.Errorf("degenerate audit: %+v", audit)
			}
		})
	}
}

// TestLinkLossInflatesEnergy: with loss probability p and ample retries,
// expected transmissions per report are 1/(1-p), so network transmit
// energy inflates accordingly while receive energy does not.
func TestLinkLossInflatesEnergy(t *testing.T) {
	p, sol := testNetwork(t, 20, 200, 12, 48)
	run := func(loss float64) *Metrics {
		s, err := New(Config{
			Problem:      p,
			Solution:     sol,
			LinkLossProb: loss,
			MaxRetries:   64, // effectively unbounded: isolates the 1/(1-p) factor
			Charger:      &ChargerConfig{PowerPerRound: 1e9, SpeedPerRound: 1e6},
			Seed:         3,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run(4000)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	clean := run(0)
	lossy := run(0.2)
	if clean.DeliveryRatio() != 1 {
		t.Fatalf("lossless run lost reports")
	}
	// With 64 retries at p=0.2, per-hop failure is ~2e-45: delivery stays 1.
	if lossy.DeliveryRatio() < 0.9999 {
		t.Errorf("ample retries should deliver everything, got %.6f", lossy.DeliveryRatio())
	}
	// Transmit energy inflates by 1/(1-p) = 1.25; receive energy is
	// unchanged, so the total inflation sits between 1 and 1.25.
	ratio := lossy.NetworkEnergy / clean.NetworkEnergy
	if ratio < 1.05 || ratio > 1.25 {
		t.Errorf("lossy/clean energy ratio %.4f outside (1.05, 1.25)", ratio)
	}
	t.Logf("energy inflation at 20%% loss: %.4f", ratio)
}

// TestLinkLossDropsReports: with a tiny retry budget, reports do get lost.
func TestLinkLossDropsReports(t *testing.T) {
	p, sol := testNetwork(t, 21, 200, 10, 30)
	s, err := New(Config{
		Problem:      p,
		Solution:     sol,
		LinkLossProb: 0.5,
		MaxRetries:   1,
		Charger:      &ChargerConfig{PowerPerRound: 1e9, SpeedPerRound: 1e6},
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	// One attempt at 50% loss per hop: multi-hop delivery collapses.
	if m.DeliveryRatio() > 0.6 {
		t.Errorf("delivery %.3f implausibly high for 50%% single-attempt loss", m.DeliveryRatio())
	}
	if m.ReportsLost == 0 {
		t.Error("no reports lost despite heavy link loss")
	}
}

func TestLinkLossValidation(t *testing.T) {
	p, sol := testNetwork(t, 22, 200, 8, 24)
	if _, err := New(Config{Problem: p, Solution: sol, LinkLossProb: 1}); err == nil {
		t.Error("loss probability 1 accepted")
	}
	if _, err := New(Config{Problem: p, Solution: sol, LinkLossProb: -0.1}); err == nil {
		t.Error("negative loss accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	p, sol := testNetwork(t, 24, 200, 8, 24)
	charger := &ChargerConfig{PowerPerRound: 1e7, SpeedPerRound: 10}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative chargers", func(c *Config) { c.Charger = charger; c.Chargers = -1 }},
		{"fleet without charger config", func(c *Config) { c.Chargers = 2 }},
		{"negative retry cap", func(c *Config) { c.MaxRetries = -1 }},
		{"lossy links without retry cap", func(c *Config) { c.LinkLossProb = 0.1 }},
		{"initial charge below zero", func(c *Config) { c.InitialChargeFrac = -0.5 }},
		{"initial charge above one", func(c *Config) { c.InitialChargeFrac = 1.5 }},
		{"failure rate below zero", func(c *Config) { c.Faults = &FaultConfig{NodeFailurePerRound: -0.1} }},
		{"failure rate above one", func(c *Config) { c.Faults = &FaultConfig{NodeFailurePerRound: 1.1} }},
		{"negative repair latency", func(c *Config) { c.Repair = &RepairConfig{LatencyRounds: -1} }},
		{"nil problem", func(c *Config) { c.Problem = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Problem: p, Solution: sol}
			tc.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("invalid config accepted")
			}
		})
	}
	// The boundary values stay accepted.
	ok := Config{Problem: p, Solution: sol, InitialChargeFrac: 1,
		LinkLossProb: 0.1, MaxRetries: 1, Charger: charger, Chargers: 1}
	if _, err := New(ok); err != nil {
		t.Errorf("valid boundary config rejected: %v", err)
	}
}

func TestHeterogeneousRatesRejected(t *testing.T) {
	p, sol := testNetwork(t, 23, 200, 8, 24)
	p.ReportRates = make([]float64, p.N())
	for i := range p.ReportRates {
		p.ReportRates[i] = float64(i%3) + 0.5
	}
	if _, err := New(Config{Problem: p, Solution: sol}); err == nil {
		t.Error("round-based simulator accepted heterogeneous rates")
	}
}
