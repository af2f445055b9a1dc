package sim

import (
	"math"
	"testing"

	"wrsn/internal/model"
)

// scheduleConfig builds a base config with a generous charger so fault
// effects are isolated from charging-capacity effects.
func scheduleConfig(p *model.Problem, sol model.Solution, seed int64) Config {
	return Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 1e9, SpeedPerRound: 1e6},
		Seed:     seed,
	}
}

func TestScheduledKillPostLosesSubtree(t *testing.T) {
	p, sol := testNetwork(t, 30, 200, 12, 48)
	// Pick the post with the largest subtree that is not a direct BS
	// child, so the kill orphans at least one live descendant.
	sizes := sol.Tree.SubtreeSizes(p)
	victim, best := -1, 1
	for i := 0; i < p.N(); i++ {
		if sizes[i] > best {
			victim, best = i, sizes[i]
		}
	}
	if victim < 0 {
		t.Skip("degenerate star topology: no post carries a subtree")
	}
	const killAt = 100
	const rounds = 500
	cfg := scheduleConfig(p, sol, 1)
	cfg.Faults = &FaultConfig{Schedule: FaultSchedule{{Round: killAt, Kind: FaultKillPost, Post: victim}}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(m.NodeFailures); got != sol.Deploy[victim] {
		t.Errorf("killed %d nodes, want the post's full strength %d", got, sol.Deploy[victim])
	}
	if m.PostsDead != 1 {
		t.Errorf("PostsDead = %d, want 1", m.PostsDead)
	}
	// Without repair, the whole subtree (victim + descendants) is lost
	// every round after the kill.
	wantLost := int64(sizes[victim]) * int64(rounds-killAt)
	if m.ReportsLost != wantLost {
		t.Errorf("lost %d reports, want subtree loss %d (subtree %d posts)", m.ReportsLost, wantLost, sizes[victim])
	}
	if m.FirstLossRound != killAt+1 {
		t.Errorf("first loss at round %d, want %d", m.FirstLossRound, killAt+1)
	}
}

func TestTransientFaultRecovers(t *testing.T) {
	p, sol := testNetwork(t, 31, 200, 10, 30)
	// Take every node at a leaf post down for 50 rounds; the post loses
	// its own reports during the outage and recovers afterwards.
	leaf := -1
	sizes := sol.Tree.SubtreeSizes(p)
	for i := 0; i < p.N(); i++ {
		if sizes[i] == 1 {
			leaf = i
			break
		}
	}
	if leaf < 0 {
		t.Fatal("no leaf post")
	}
	var schedule FaultSchedule
	for k := 0; k < sol.Deploy[leaf]; k++ {
		schedule = append(schedule, FaultEvent{Round: 100, Kind: FaultTransientNode, Post: leaf, Duration: 50})
	}
	cfg := scheduleConfig(p, sol, 1)
	cfg.Faults = &FaultConfig{Schedule: schedule}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	if m.TransientFaults != int64(sol.Deploy[leaf]) {
		t.Fatalf("TransientFaults = %d, want %d", m.TransientFaults, sol.Deploy[leaf])
	}
	if m.NodeFailures != 0 {
		t.Errorf("transient outage recorded %d permanent failures", m.NodeFailures)
	}
	// Outage spans rounds 101..150: exactly 50 own reports lost, then
	// full recovery (no post death, no further losses).
	if m.ReportsLost != 50 {
		t.Errorf("lost %d reports, want 50 (the outage window)", m.ReportsLost)
	}
	if m.PostsDead != 0 {
		t.Errorf("transient outage killed the post (PostsDead=%d)", m.PostsDead)
	}
	if got := m.DeliveryRatio(); got <= 0.98 {
		t.Errorf("delivery %.4f too low after recovery", got)
	}
}

func TestCorrelatedOutageKillsNeighbourhood(t *testing.T) {
	p, sol := testNetwork(t, 32, 200, 12, 36)
	// A stochastic outage with a radius covering the whole field kills
	// every node in one strike.
	cfg := scheduleConfig(p, sol, 5)
	cfg.Faults = &FaultConfig{PostOutagePerRound: 1, OutageRadius: 1e9}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if m.CorrelatedOutages == 0 {
		t.Fatal("no outage fired at probability 1")
	}
	if int(m.NodeFailures) != p.Nodes {
		t.Errorf("field-wide outage killed %d of %d nodes", m.NodeFailures, p.Nodes)
	}
	if m.PostsDead != p.N() {
		t.Errorf("PostsDead = %d, want all %d", m.PostsDead, p.N())
	}
}

func TestZeroRadiusOutageKillsOnePost(t *testing.T) {
	p, sol := testNetwork(t, 33, 200, 10, 30)
	cfg := scheduleConfig(p, sol, 9)
	cfg.Faults = &FaultConfig{PostOutagePerRound: 1, OutageRadius: 0}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.CorrelatedOutages != 1 {
		t.Fatalf("outages = %d, want 1", m.CorrelatedOutages)
	}
	if m.PostsDead != 1 {
		t.Errorf("zero-radius outage killed %d posts, want exactly 1", m.PostsDead)
	}
}

func TestChargerBreakdownStallsCharging(t *testing.T) {
	p, sol := testNetwork(t, 34, 200, 10, 30)
	const down = 400
	cfg := scheduleConfig(p, sol, 1)
	cfg.Faults = &FaultConfig{Schedule: FaultSchedule{{Round: 10, Kind: FaultChargerDown, Charger: 0, Duration: down}}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(600)
	if err != nil {
		t.Fatal(err)
	}
	if m.ChargerBreakdowns != 1 {
		t.Fatalf("breakdowns = %d, want 1", m.ChargerBreakdowns)
	}
	// Breakdown at round 10 with duration 400 idles the charger through
	// round 410 (including the breakdown round itself).
	if m.ChargerDownRounds != down+1 {
		t.Errorf("ChargerDownRounds = %d, want %d", m.ChargerDownRounds, down+1)
	}
	// The charger must resume service after repair.
	healthy, err := New(scheduleConfig(p, sol, 1))
	if err != nil {
		t.Fatal(err)
	}
	hm, err := healthy.Run(600)
	if err != nil {
		t.Fatal(err)
	}
	if hm.ChargerEnergy > 0 && m.ChargerEnergy == 0 {
		t.Error("charger never recovered from the breakdown")
	}
}

func TestPerNodeBernoulliInjectionRate(t *testing.T) {
	// The under-injection fix: with per-node probability p, failures per
	// round follow Binomial(alive, p), so the long-run injection count
	// tracks alive*p per round instead of being capped at one. Use a
	// short horizon so the alive population stays near its initial size.
	p, sol := testNetwork(t, 35, 200, 10, 60)
	const (
		rate   = 0.002
		rounds = 400
	)
	cfg := scheduleConfig(p, sol, 11)
	cfg.Faults = &FaultConfig{NodeFailurePerRound: rate}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	// Expected failures ≈ nodes * (1 - (1-p)^rounds) = 60 * 0.551 ≈ 33.
	expected := float64(p.Nodes) * (1 - math.Pow(1-rate, rounds))
	if m.NodeFailures < int64(expected*0.6) || m.NodeFailures > int64(expected*1.4) {
		t.Errorf("injected %d failures, want ≈ %.0f (the old engine would cap at %d)",
			m.NodeFailures, expected, rounds)
	}
	// The historical one-per-round cap would have made >rounds failures
	// impossible at any rate; per-node draws routinely exceed one per
	// round at high rates.
	burst, _ := New(Config{Problem: p, Solution: sol, Faults: &FaultConfig{NodeFailurePerRound: 1}, Seed: 1})
	bm, err := burst.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if int(bm.NodeFailures) != p.Nodes {
		t.Errorf("rate 1 killed %d of %d nodes in one round; per-node draws must kill all", bm.NodeFailures, p.Nodes)
	}
}

// TestFaultOnsetMeans checks the sampled onsets against the per-round
// Bernoulli processes they realise. Each hazard runs alone, so its mean
// onset count over seeds has a closed form:
//   - permanent failures: N·(1 − (1−p)^R);
//   - correlated outages, which recur and are never suppressed: R·p;
//   - transients: each node alternates a geometric wait (mean 1/p rounds,
//     the onset round included) with an outage D = ceil(Exp·M), where
//     E[D] = 1/(1 − e^(−1/M)), so N·R/(1/p + E[D]); starting mid-wait
//     puts the exact mean under 1% above this at these horizons;
//   - charger breakdowns: likewise with a fixed repair C, K·R/(1/p + C).
//
// The high rates and short horizons make an onset drawn one round early
// or late, or a hazard that fires while its target is down, miss by more
// than the tolerance.
func TestFaultOnsetMeans(t *testing.T) {
	p, sol := testNetwork(t, 14, 250, 15, 60)
	n := float64(p.Nodes)
	const seeds = 40
	cases := []struct {
		name   string
		faults FaultConfig
		rounds int
		count  func(*Metrics) int64
		want   float64
		tol    float64
	}{
		{"permanent", FaultConfig{NodeFailurePerRound: 0.2}, 3,
			func(m *Metrics) int64 { return m.NodeFailures },
			n * (1 - math.Pow(1-0.2, 3)), 0.15},
		{"outage", FaultConfig{PostOutagePerRound: 0.5}, 400,
			func(m *Metrics) int64 { return m.CorrelatedOutages },
			400 * 0.5, 0.25},
		{"transient", FaultConfig{TransientPerRound: 0.02, TransientMeanRounds: 50}, 3000,
			func(m *Metrics) int64 { return m.TransientFaults },
			n * 3000 / (1/0.02 + 1/(1-math.Exp(-1.0/50))), 0.15},
		{"charger", FaultConfig{ChargerFailurePerRound: 0.02, ChargerRepairRounds: 50}, 3000,
			func(m *Metrics) int64 { return m.ChargerBreakdowns },
			2 * 3000 / (1/0.02 + 50.0), 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := 0.0
			for seed := int64(0); seed < seeds; seed++ {
				cfg := scheduleConfig(p, sol, seed)
				cfg.Chargers = 2
				f := tc.faults
				cfg.Faults = &f
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				m, err := s.Run(tc.rounds)
				if err != nil {
					t.Fatal(err)
				}
				sum += float64(tc.count(m))
			}
			mean := sum / seeds
			t.Logf("mean onsets %.2f, closed form %.2f", mean, tc.want)
			if math.Abs(mean-tc.want) > tc.tol*tc.want {
				t.Errorf("mean onsets %.2f, want %.2f within %.0f%%", mean, tc.want, 100*tc.tol)
			}
		})
	}
}

func TestFaultScheduleDeterminism(t *testing.T) {
	p, sol := testNetwork(t, 36, 200, 12, 48)
	run := func() Metrics {
		cfg := scheduleConfig(p, sol, 77)
		cfg.Faults = &FaultConfig{
			NodeFailurePerRound: 0.0005,
			TransientPerRound:   0.0005,
			PostOutagePerRound:  0.0002,
			OutageRadius:        30,
			Schedule: FaultSchedule{
				{Round: 50, Kind: FaultKillNode, Post: 3},
				{Round: 20, Kind: FaultTransientNode, Post: 1, Duration: 10},
			},
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(2000); err != nil {
			t.Fatal(err)
		}
		return s.Metrics()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	p, sol := testNetwork(t, 37, 200, 8, 24)
	cases := []struct {
		name string
		fc   FaultConfig
	}{
		{"negative node rate", FaultConfig{NodeFailurePerRound: -0.1}},
		{"node rate above one", FaultConfig{NodeFailurePerRound: 1.5}},
		{"negative transient mean", FaultConfig{TransientMeanRounds: -1}},
		{"negative outage radius", FaultConfig{OutageRadius: -5}},
		{"negative charger repair", FaultConfig{ChargerRepairRounds: -1}},
		{"charger fault without charger", FaultConfig{ChargerFailurePerRound: 0.1}},
		{"schedule round zero", FaultConfig{Schedule: FaultSchedule{{Round: 0, Kind: FaultKillPost, Post: 0}}}},
		{"schedule bad post", FaultConfig{Schedule: FaultSchedule{{Round: 1, Kind: FaultKillPost, Post: 99}}}},
		{"schedule bad kind", FaultConfig{Schedule: FaultSchedule{{Round: 1, Kind: "meteor", Post: 0}}}},
		{"transient without duration", FaultConfig{Schedule: FaultSchedule{{Round: 1, Kind: FaultTransientNode, Post: 0}}}},
		{"charger event without charger", FaultConfig{Schedule: FaultSchedule{{Round: 1, Kind: FaultChargerDown, Duration: 5}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := tc.fc
			if _, err := New(Config{Problem: p, Solution: sol, Faults: &fc}); err == nil {
				t.Errorf("config %+v accepted", tc.fc)
			}
		})
	}
}
