package sim

import (
	"context"
	"testing"
)

func benchConfig(b *testing.B, kind StepperKind, charger bool) Config {
	b.Helper()
	p, sol := testNetwork(b, 21, 250, 15, 60)
	cfg := Config{Problem: p, Solution: sol, Seed: 1, Stepper: kind}
	if charger {
		cfg.Charger = &ChargerConfig{PowerPerRound: 1e9, SpeedPerRound: 1e6}
	}
	return cfg
}

// BenchmarkSimRound prices one round of the per-round reference stepper
// on a healthy charged network — the cost the event core's fast-forward
// path amortises away.
func BenchmarkSimRound(b *testing.B) {
	s, err := New(benchConfig(b, StepperExact, true))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}

// BenchmarkSimFastForward prices 1000 rounds of the event core in steady
// state (healthy network, charger servicing it). CI gates this benchmark
// at 0 allocs/op: the span machinery must run entirely on persistent
// buffers.
func BenchmarkSimFastForward(b *testing.B) {
	s, err := New(benchConfig(b, StepperEvent, true))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := s.runEvent(ctx, 2000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.runEvent(ctx, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimLifetime prices a full uncharged lifetime run — network
// drains to depletion — under both cores. The event core crosses the
// same rounds in a handful of spans.
func BenchmarkSimLifetime(b *testing.B) {
	for _, kind := range []StepperKind{StepperExact, StepperEvent} {
		b.Run(string(kind), func(b *testing.B) {
			cfg := benchConfig(b, kind, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(2 * DefaultBatteryRounds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimMobileCharger prices 1000 rounds of the event core with a
// slow mobile charger that is idle most of the time: fault-free, six
// nodes per post. Idle spans are bounded by the idle-charger horizon,
// so this tracks how far the rotation-aware bound stretches them. CI
// gates it at 0 allocs/op next to BenchmarkSimFastForward.
func BenchmarkSimMobileCharger(b *testing.B) {
	p, sol := rotationNetwork(b, 21, 250, 15, 6)
	s, err := New(Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 1e9, SpeedPerRound: 25},
		Seed:     1,
		Stepper:  StepperEvent,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := s.runEvent(ctx, 2000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.runEvent(ctx, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimFaultyLifetime prices 1000 rounds of the event core on a
// network that keeps failing: sampled node failures, transient outages
// that recover, correlated post outages and charger breakdowns, with
// online repair and a slow charger. It covers what the two benchmarks
// above never reach: spans cut by fault onsets and recoveries, death
// detection with its partition check, and tree repairs with the
// tree-derived rebuild. A scheduled post kill inside the warm-up builds
// the healer and grows the repair buffers, so CI gates this benchmark at
// 0 allocs/op next to the other two. A post death's partition check
// keeps its survivor mask in a persistent buffer, but
// model.SurvivorsReachable still allocates its BFS buffers; post deaths
// come a few per hundred ops, under the gate's resolution.
func BenchmarkSimFaultyLifetime(b *testing.B) {
	p, sol := rotationNetwork(b, 21, 250, 15, 6)
	s, err := New(Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 1e9, SpeedPerRound: 25},
		Faults: &FaultConfig{
			NodeFailurePerRound:    2e-6,
			TransientPerRound:      1e-4,
			TransientMeanRounds:    50,
			PostOutagePerRound:     3e-5,
			ChargerFailurePerRound: 1e-4,
			ChargerRepairRounds:    200,
			Schedule:               FaultSchedule{{Round: 500, Kind: FaultKillPost, Post: 7}},
		},
		Repair:  &RepairConfig{LatencyRounds: 10},
		Seed:    1,
		Stepper: StepperEvent,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := s.runEvent(ctx, 2000); err != nil {
		b.Fatal(err)
	}
	if s.metrics.Repairs == 0 {
		b.Fatal("no repair during the warm-up")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.runEvent(ctx, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimFaultDense prices one job of the lifetime-sim workload's
// shape: Fig. 8-scale posts (100 posts, 600 nodes), 1e-4 permanent and
// 1e-4 transient failures per node-round, a slow charger and online
// repair with a 10-round latency, run by the event core over three
// battery lifetimes. Nearly every span holds sampled node faults, so this
// prices firing them inside the span and settling the touched posts.
// Jobs cycle through five failure seeds, as lifetime-sim simulates each
// plan under five; each builds its simulator with the timer stopped.
// A job builds its healer on the first repair and runs a partition
// check (model.SurvivorsReachable, which allocates its BFS buffers) on
// every post death, so its allocations count those, not the spans.
func BenchmarkSimFaultDense(b *testing.B) {
	p, sol := testNetwork(b, 20, 500, 100, 600)
	cfg := Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 1e9, SpeedPerRound: 25},
		Faults: &FaultConfig{
			NodeFailurePerRound: 1e-4,
			TransientPerRound:   1e-4,
			TransientMeanRounds: 50,
		},
		Repair:  &RepairConfig{LatencyRounds: 10},
		Stepper: StepperEvent,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg.Seed = int64(1 + i%5)
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.runEvent(ctx, 3*DefaultBatteryRounds); err != nil {
			b.Fatal(err)
		}
	}
}
