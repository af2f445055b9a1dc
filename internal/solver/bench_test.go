package solver

import (
	"context"
	"testing"
)

// BenchmarkIDB measures the full IDB(1) heuristic — the library's
// dominant workload — on a mid-size instance, deltas probed through the
// incremental evaluator. Allocations are reported so regressions in the
// evaluator's steady state (which must stay allocation-free per probe)
// surface as allocs/op growth here.
func BenchmarkIDB(b *testing.B) {
	p := randomProblem(b, 1, 350, 50, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := IDB(context.Background(), p, IDBOptions{Delta: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalSearch measures the hill climb from an RFH seed; its
// probes are two-move deltas, the incremental evaluator's cheapest case.
func BenchmarkLocalSearch(b *testing.B) {
	p := randomProblem(b, 1, 350, 50, 150)
	seed, err := RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LocalSearch(context.Background(), p, LocalSearchOptions{Start: seed}); err != nil {
			b.Fatal(err)
		}
	}
}
