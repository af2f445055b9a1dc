package wrsn

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, each regenerating the corresponding experiment (at reduced
// seed counts so `go test -bench=.` stays tractable) and reporting the
// headline numbers as custom metrics, plus micro-benchmarks for the
// algorithmic hot paths. Full paper-scale runs: cmd/wrsn-experiments.

import (
	"context"
	"math/rand"
	"testing"

	"wrsn/internal/experiments"
	"wrsn/internal/model"
	"wrsn/internal/routing"
	"wrsn/internal/sim"
	"wrsn/internal/solver"
)

// benchOptions keeps per-iteration work bounded while preserving every
// trend the paper reports.
func benchOptions() experiments.Options {
	return experiments.Options{Quick: true, Seeds: 1, BaseSeed: 1}
}

// reportSeries publishes each series' first and last Y value so bench
// output shows the actual reproduced numbers. Metric units must not
// contain whitespace, so labels are slugified.
func reportSeries(b *testing.B, fig *experiments.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Y) == 0 {
			continue
		}
		label := metricSlug(s.Label)
		b.ReportMetric(s.Y[0], label+"_first_uJ")
		b.ReportMetric(s.Y[len(s.Y)-1], label+"_last_uJ")
	}
}

// metricSlug rewrites a series label into a ReportMetric-safe unit token.
func metricSlug(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '_' {
		out = out[:len(out)-1]
	}
	if len(out) == 0 {
		return "series"
	}
	return string(out)
}

// BenchmarkFig1 regenerates Table II / Fig. 1: the simulated Powercast
// field-experiment grid (40 trials per cell).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			one := res.Figures[0].Get("1 sensors")
			six := res.Figures[0].Get("6 sensors")
			b.ReportMetric(one.Y[0], "mW_1sensor_20cm")
			b.ReportMetric(six.Y[0]*6/one.Y[0], "network_gain_6sensors")
		}
	}
}

// BenchmarkFig6 regenerates the iterative-RFH convergence study.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkFig7a regenerates the small-scale optimal comparison (varying
// node count).
func BenchmarkFig7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig7a(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkFig7b regenerates the small-scale optimal comparison (varying
// post count).
func BenchmarkFig7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig7b(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkFig8 regenerates the large-scale node-count sweep.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkFig9 regenerates the large-scale post-count sweep.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkFig10 regenerates the power-level sweep.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig10(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// benchProblem builds one connected instance for micro-benchmarks.
func benchProblem(b *testing.B, seed int64, side float64, n, m int) *Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	field := Square(side)
	for attempt := 0; attempt < 1000; attempt++ {
		p := &Problem{
			Posts:    field.RandomPoints(rng, n),
			BS:       field.Corner(),
			Nodes:    m,
			Energy:   DefaultEnergyModel(),
			Charging: DefaultChargingModel(),
		}
		if p.Validate() == nil {
			return p
		}
	}
	b.Fatalf("no connected instance (seed=%d)", seed)
	return nil
}

// BenchmarkSolveBasicRFH measures one basic RFH pass at Fig. 8 scale.
func BenchmarkSolveBasicRFH(b *testing.B) {
	p := benchProblem(b, 1, 500, 100, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.RFH(context.Background(), p, solver.RFHOptions{Iterations: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveIterativeRFH measures the full 7-iteration RFH at Fig. 8
// scale — the solver the paper recommends for large networks.
func BenchmarkSolveIterativeRFH(b *testing.B) {
	p := benchProblem(b, 1, 500, 100, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.RFH(context.Background(), p, solver.RFHOptions{Iterations: solver.DefaultRFHIterations}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveIDB measures IDB(δ=1) at Fig. 8 scale, the paper's
// slower-but-better heuristic (the RFH-vs-IDB runtime gap is the paper's
// stated reason to prefer RFH on large networks).
func BenchmarkSolveIDB(b *testing.B) {
	p := benchProblem(b, 1, 500, 100, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.IDB(context.Background(), p, solver.IDBOptions{Delta: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveOptimal measures the exact branch-and-bound at Fig. 7
// scale (10 posts, 36 nodes).
func BenchmarkSolveOptimal(b *testing.B) {
	p := benchProblem(b, 1, 200, 10, 36)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Optimal(context.Background(), p, solver.OptimalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFatTreeTrim isolates Phase II (the RFH complexity bottleneck,
// O(N^2 log N)) at 300 posts.
func BenchmarkFatTreeTrim(b *testing.B) {
	p := benchProblem(b, 1, 500, 300, 900)
	dag, err := p.FatTree(p.EnergyWeights())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.Trim(dag, p.N()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostEvaluator measures the deployment-evaluation hot path
// (one Dijkstra per candidate) that dominates IDB and the exact solver.
func BenchmarkCostEvaluator(b *testing.B) {
	p := benchProblem(b, 1, 500, 100, 600)
	ev, err := model.NewCostEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	deploy, err := model.UniformDeployment(p.N(), p.Nodes)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.MinCost(deploy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures simulated rounds per second on a solved
// mid-size network with an active charger.
func BenchmarkSimulator(b *testing.B) {
	p := benchProblem(b, 3, 300, 25, 100)
	res, err := solver.RFH(context.Background(), p, solver.RFHOptions{Iterations: solver.DefaultRFHIterations})
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		Problem:  p,
		Solution: res.Solution,
		Charger:  &sim.ChargerConfig{PowerPerRound: 5e7, SpeedPerRound: 25},
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := s.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationSiblingMerge quantifies Phase III: iterative RFH with
// and without the opportunistic sibling merge (a DESIGN.md design-choice
// ablation).
func BenchmarkAblationSiblingMerge(b *testing.B) {
	p := benchProblem(b, 1, 500, 100, 600)
	b.Run("with-merge", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := solver.RFH(context.Background(), p, solver.RFHOptions{Iterations: 7})
			if err != nil {
				b.Fatal(err)
			}
			last = res.Cost
		}
		b.ReportMetric(last/1000, "cost_uJ")
	})
	b.Run("without-merge", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := solver.RFH(context.Background(), p, solver.RFHOptions{Iterations: 7, DisableSiblingMerge: true})
			if err != nil {
				b.Fatal(err)
			}
			last = res.Cost
		}
		b.ReportMetric(last/1000, "cost_uJ")
	})
}

// BenchmarkAblationIDBDelta compares IDB increments δ=1,2,4: larger
// rounds are less greedy but combinatorially more expensive.
func BenchmarkAblationIDBDelta(b *testing.B) {
	p := benchProblem(b, 1, 300, 30, 120)
	for _, delta := range []int{1, 2, 4} {
		delta := delta
		b.Run("delta-"+string(rune('0'+delta)), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := solver.IDB(context.Background(), p, solver.IDBOptions{Delta: delta})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Cost
			}
			b.ReportMetric(last/1000, "cost_uJ")
		})
	}
}

// BenchmarkExtGain regenerates the gain-model sensitivity extension.
func BenchmarkExtGain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ExtGain(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkExtOverhead regenerates the sensing-overhead extension sweep.
func BenchmarkExtOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ExtOverhead(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkExtChargerPolicy regenerates the charger-scheduling comparison.
func BenchmarkExtChargerPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ExtChargerPolicy(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkSolveLocalSearch measures the hill-climbing refinement on a
// mid-size instance, seeded by iterative RFH.
func BenchmarkSolveLocalSearch(b *testing.B) {
	p := benchProblem(b, 1, 300, 30, 120)
	seedResult, err := solver.RFH(context.Background(), p, solver.RFHOptions{Iterations: solver.DefaultRFHIterations})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.LocalSearch(context.Background(), p, solver.LocalSearchOptions{Start: seedResult}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveAnneal measures the simulated-annealing walk at the
// ext-portfolio shape (350x350 m, 40 posts, 200 nodes), seeded by
// iterative RFH outside the timer so only the walk's probes are timed.
func BenchmarkSolveAnneal(b *testing.B) {
	p := benchProblem(b, 1, 350, 40, 200)
	seedResult, err := solver.RFH(context.Background(), p, solver.RFHOptions{Iterations: solver.DefaultRFHIterations})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Anneal(context.Background(), p, solver.AnnealOptions{Start: seedResult, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPhase1Weights compares the paper's transmit-only
// Phase-I weights against true-network-energy weights (tx+rx) on the
// first RFH round (another DESIGN.md design-choice ablation).
func BenchmarkAblationPhase1Weights(b *testing.B) {
	p := benchProblem(b, 1, 500, 100, 600)
	b.Run("tx-only", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := solver.RFH(context.Background(), p, solver.RFHOptions{Iterations: 7})
			if err != nil {
				b.Fatal(err)
			}
			last = res.Cost
		}
		b.ReportMetric(last/1000, "cost_uJ")
	})
	b.Run("tx-plus-rx", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := solver.RFH(context.Background(), p, solver.RFHOptions{Iterations: 7, IncludeRxInPhase1: true})
			if err != nil {
				b.Fatal(err)
			}
			last = res.Cost
		}
		b.ReportMetric(last/1000, "cost_uJ")
	})
}
