package model

import (
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/geom"
)

// diffProblem draws a random connected instance for the differential
// suites: n posts scattered uniformly over a field sized to the density
// of the paper-scale experiments (100 posts per 500m square).
func diffProblem(t testing.TB, seed int64, n, nodes int, cm charging.Model) *Problem {
	t.Helper()
	side := 50 * math.Sqrt(float64(n))
	p, err := GenerateProblem(rand.New(rand.NewSource(seed)), GenSpec{
		Field:    geom.Field{Width: side, Height: side},
		Posts:    n,
		Nodes:    nodes,
		Charging: cm,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return p
}

// checkAgainstOracle asserts the incremental evaluator's committed view of
// cur prices and finalises exactly like a fresh stateless evaluation.
func checkAgainstOracle(t *testing.T, oracle *CostEvaluator, inc *IncrementalEvaluator, cur []int, got float64, step int) {
	t.Helper()
	want, err := oracle.MinCost(cur)
	if err != nil {
		t.Fatalf("step %d: oracle: %v", step, err)
	}
	// The evaluators share edge pricing and relaxation arithmetic, so
	// agreement is bit-exact, not merely within DAGTolerance — the solver
	// golden tests depend on that.
	if got != want {
		t.Fatalf("step %d: incremental cost %.17g, oracle %.17g (diff %g)", step, got, want, got-want)
	}
}

func TestIncrementalEvaluatorDifferential(t *testing.T) {
	gains := map[string]charging.Model{
		"linear":     {EtaSingle: 1, Gain: charging.Linear()},
		"sublinear":  {EtaSingle: 0.5, Gain: charging.Sublinear(0.8)},
		"saturating": {EtaSingle: 1, Gain: charging.Saturating(3)},
	}
	for name, cm := range gains {
		for _, variant := range []string{"plain", "weighted"} {
			t.Run(name+"/"+variant, func(t *testing.T) {
				const n, nodes = 30, 90
				p := diffProblem(t, 7, n, nodes, cm)
				if variant == "weighted" {
					rates := make([]float64, n)
					over := make([]float64, n)
					rng := rand.New(rand.NewSource(11))
					for i := range rates {
						rates[i] = 0.25 + 2*rng.Float64()
						over[i] = 40 * rng.Float64()
					}
					p.ReportRates = rates
					p.RoundOverhead = 25
					p.PostOverheads = over
					if err := p.Validate(); err != nil {
						t.Fatalf("weighted variant invalid: %v", err)
					}
				}
				oracle, err := NewCostEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}
				inc, err := NewIncrementalEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}

				rng := rand.New(rand.NewSource(42))
				cur := make([]int, n)
				for i := range cur {
					cur[i] = 1 + rng.Intn(4)
				}
				got, err := inc.Cost(cur)
				if err != nil {
					t.Fatalf("Cost: %v", err)
				}
				checkAgainstOracle(t, oracle, inc, cur, got, -1)

				moves := make([]Move, 0, 4)
				for step := 0; step < 400; step++ {
					switch rng.Intn(10) {
					case 0: // occasional full rebase
						for i := range cur {
							cur[i] = 1 + rng.Intn(4)
						}
						got, err = inc.Cost(cur)
						if err != nil {
							t.Fatalf("step %d: Cost: %v", step, err)
						}
					default:
						moves = moves[:0]
						for k := rng.Intn(3) + 1; k > 0; k-- {
							post := rng.Intn(n)
							delta := 1
							if rng.Intn(2) == 0 && cur[post] > 1 {
								delta = -1
							}
							moves = append(moves, Move{Post: post, Delta: delta})
							cur[post] += delta
						}
						got, err = inc.CostDelta(moves)
						if err != nil {
							t.Fatalf("step %d: CostDelta(%v): %v", step, moves, err)
						}
						if rng.Intn(3) == 0 { // reject the probe
							if err := inc.Revert(); err != nil {
								t.Fatalf("step %d: Revert: %v", step, err)
							}
							for _, mv := range moves {
								cur[mv.Post] -= mv.Delta
							}
							// Re-probe the committed point to check the revert
							// restored a consistent state.
							got, err = inc.CostDelta(moves[:0])
							if err != nil {
								t.Fatalf("step %d: noop probe: %v", step, err)
							}
						}
						if err := inc.Commit(); err != nil {
							t.Fatalf("step %d: Commit: %v", step, err)
						}
					}
					checkAgainstOracle(t, oracle, inc, cur, got, step)

					if step%50 == 0 {
						wantPar, wantCost, err := oracle.BestParents(cur)
						if err != nil {
							t.Fatalf("step %d: oracle parents: %v", step, err)
						}
						gotPar, gotCost, err := inc.BestParents(cur)
						if err != nil {
							t.Fatalf("step %d: incremental parents: %v", step, err)
						}
						if gotCost != wantCost {
							t.Fatalf("step %d: BestParents cost %.17g, oracle %.17g", step, gotCost, wantCost)
						}
						for i := range wantPar {
							if gotPar[i] != wantPar[i] {
								t.Fatalf("step %d: parent[%d] = %d, oracle %d", step, i, gotPar[i], wantPar[i])
							}
						}
					}
				}

				st := inc.Stats()
				if st.Probes == 0 || st.Repairs == 0 {
					t.Errorf("stats show no incremental work: %+v", st)
				}
			})
		}
	}
}

func TestIncrementalEvaluatorProtocol(t *testing.T) {
	p := diffProblem(t, 3, 12, 36, charging.Model{EtaSingle: 1, Gain: charging.Linear()})
	inc, err := NewIncrementalEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := inc.CostDelta([]Move{{Post: 0, Delta: 1}}); err == nil {
		t.Error("CostDelta before Cost accepted")
	}
	if err := inc.Commit(); err == nil {
		t.Error("Commit without probe accepted")
	}
	if err := inc.Revert(); err == nil {
		t.Error("Revert without probe accepted")
	}

	cur := make([]int, p.N())
	for i := range cur {
		cur[i] = 2
	}
	base, err := inc.Cost(cur)
	if err != nil {
		t.Fatal(err)
	}

	// Illegal probes must leave the committed state untouched.
	if _, err := inc.CostDelta([]Move{{Post: 99, Delta: 1}}); err == nil {
		t.Error("out-of-range move accepted")
	}
	if _, err := inc.CostDelta([]Move{{Post: 0, Delta: -2}}); err == nil {
		t.Error("move below one node accepted")
	}
	if got, err := inc.CostDelta(nil); err != nil || got != base {
		t.Errorf("noop probe after illegal moves = %v, %v; want committed cost %v", got, err, base)
	}
	if _, err := inc.CostDelta(nil); err == nil {
		t.Error("second probe while pending accepted")
	}
	if _, err := inc.Cost(cur); err == nil {
		t.Error("Cost while probe pending accepted")
	}
	if err := inc.Revert(); err != nil {
		t.Fatal(err)
	}

	// A net-zero move set (+1 then -1 on one post) prices the base.
	got, err := inc.CostDelta([]Move{{Post: 1, Delta: 1}, {Post: 1, Delta: -1}})
	if err != nil || got != base {
		t.Errorf("net-zero probe = %v, %v; want %v", got, err, base)
	}
	if err := inc.Commit(); err != nil {
		t.Fatal(err)
	}
}

// FuzzIncrementalEvaluator drives random probe/commit/revert sequences
// from fuzzer-chosen bytes and cross-checks every committed state against
// a fresh stateless evaluation (same differential contract as
// TestIncrementalEvaluatorDifferential, fuzzer-steered).
func FuzzIncrementalEvaluator(f *testing.F) {
	f.Add(int64(1), []byte{0x01, 0x82, 0x13, 0xff, 0x40, 0x07})
	f.Add(int64(9), []byte{0xaa, 0x55, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60})
	f.Add(int64(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		const n, nodes = 14, 42
		p := diffProblem(t, 5, n, nodes, charging.Model{EtaSingle: 0.8, Gain: charging.Sublinear(0.9)})
		oracle, err := NewCostEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncrementalEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(seed))
		cur := make([]int, n)
		for i := range cur {
			cur[i] = 1 + rng.Intn(3)
		}
		if _, err := inc.Cost(cur); err != nil {
			t.Fatal(err)
		}

		var moves []Move
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 4 {
			case 0, 1: // probe, then commit (0) or revert (1)
				moves = moves[:0]
				for k := int(arg%3) + 1; k > 0; k-- {
					post := rng.Intn(n)
					delta := 1
					if arg&0x10 != 0 && cur[post] > 1 {
						delta = -1
					}
					moves = append(moves, Move{Post: post, Delta: delta})
					cur[post] += delta
				}
				if _, err := inc.CostDelta(moves); err != nil {
					t.Fatalf("CostDelta(%v): %v", moves, err)
				}
				if op%4 == 1 {
					if err := inc.Revert(); err != nil {
						t.Fatal(err)
					}
					for _, mv := range moves {
						cur[mv.Post] -= mv.Delta
					}
				} else if err := inc.Commit(); err != nil {
					t.Fatal(err)
				}
			case 2: // rebase
				for j := range cur {
					cur[j] = 1 + int(arg+byte(j))%3
				}
				if _, err := inc.Cost(cur); err != nil {
					t.Fatal(err)
				}
			case 3: // illegal probe must not corrupt state
				if _, err := inc.CostDelta([]Move{{Post: int(arg), Delta: -1000}}); err == nil {
					t.Fatal("illegal probe accepted")
				}
			}

			got, err := inc.CostDelta(nil)
			if err != nil {
				t.Fatalf("audit probe: %v", err)
			}
			if err := inc.Revert(); err != nil {
				t.Fatal(err)
			}
			want, err := oracle.MinCost(cur)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if got != want {
				t.Fatalf("committed cost %.17g, oracle %.17g (cur=%v)", got, want, cur)
			}
		}
	})
}

func BenchmarkMinCost(b *testing.B) {
	p := diffProblem(b, 1, 100, 300, charging.Model{EtaSingle: 1, Gain: charging.Linear()})
	ev, err := NewCostEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	m := make([]int, p.N())
	for i := range m {
		m[i] = 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.MinCost(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostDelta measures the steady-state probe/revert cycle — the
// inner loop of every solver — and must report 0 allocs/op.
func BenchmarkCostDelta(b *testing.B) {
	p := diffProblem(b, 1, 100, 300, charging.Model{EtaSingle: 1, Gain: charging.Linear()})
	ev, err := NewIncrementalEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	m := make([]int, p.N())
	for i := range m {
		m[i] = 3
	}
	if _, err := ev.Cost(m); err != nil {
		b.Fatal(err)
	}
	moves := make([]Move, 2)
	// Warm the journal/move buffers to their steady-state capacity.
	for i := 0; i < 8; i++ {
		moves[0] = Move{Post: i % p.N(), Delta: 1}
		moves[1] = Move{Post: (i + 37) % p.N(), Delta: -1}
		if _, err := ev.CostDelta(moves); err != nil {
			b.Fatal(err)
		}
		if err := ev.Revert(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves[0] = Move{Post: i % p.N(), Delta: 1}
		moves[1] = Move{Post: (i + 37) % p.N(), Delta: -1}
		if _, err := ev.CostDelta(moves); err != nil {
			b.Fatal(err)
		}
		if err := ev.Revert(); err != nil {
			b.Fatal(err)
		}
	}
}
