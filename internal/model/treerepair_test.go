package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/geom"
)

// journalSet returns the distinct vertices ev's pending probe journaled,
// sorted.
func journalSet(ev *IncrementalEvaluator) []int32 {
	vs := make([]int32, 0, len(ev.journal))
	for _, j := range ev.journal {
		vs = append(vs, j.v)
	}
	slices.Sort(vs)
	return slices.Compact(vs)
}

// sameRepairState fails unless both evaluators hold bit-identical
// distances and identical parents.
func sameRepairState(t *testing.T, label string, a, b *IncrementalEvaluator) {
	t.Helper()
	for v := range a.dist {
		if math.Float64bits(a.dist[v]) != math.Float64bits(b.dist[v]) {
			t.Fatalf("%s: dist[%d] = %.17g walk, %.17g heap", label, v, a.dist[v], b.dist[v])
		}
	}
	for u := range a.par {
		if a.par[u] != b.par[u] {
			t.Fatalf("%s: par[%d] = %d walk, %d heap", label, u, a.par[u], b.par[u])
		}
	}
}

// priceBothWays probes moves on the walking evaluator and on its
// heap-only twin and requires the same cost bits, distances, parents,
// journaled vertex set and full-recompute decision; it leaves both
// pending.
func priceBothWays(t *testing.T, label string, walk, heap *IncrementalEvaluator, moves []Move) {
	t.Helper()
	cw, err := walk.CostDelta(moves)
	if err != nil {
		t.Fatalf("%s: walk CostDelta(%v): %v", label, moves, err)
	}
	ch, err := heap.CostDelta(moves)
	if err != nil {
		t.Fatalf("%s: heap CostDelta(%v): %v", label, moves, err)
	}
	if math.Float64bits(cw) != math.Float64bits(ch) {
		t.Fatalf("%s: cost %.17g walk, %.17g heap", label, cw, ch)
	}
	sameRepairState(t, label, walk, heap)
	if walk.full != heap.full {
		t.Fatalf("%s: full recompute %v walk, %v heap", label, walk.full, heap.full)
	}
	if js, jh := journalSet(walk), journalSet(heap); !slices.Equal(js, jh) {
		t.Fatalf("%s: journaled %v walk, %v heap", label, js, jh)
	}
}

// TestTreeRepairMatchesHeapPath prices every single-post unit add of
// several committed deployments per problem through the subtree walk
// and through the heap path, on uniform and clustered layouts with
// heterogeneous rates and per-post overheads. Committed states are
// reached through repaired commits, so the child lists carry commit
// histories as they do inside the solvers.
func TestTreeRepairMatchesHeapPath(t *testing.T) {
	sub := charging.Model{EtaSingle: 0.8, Gain: charging.Sublinear(0.9)}
	lin := charging.Model{EtaSingle: 1, Gain: charging.Linear()}
	for _, tc := range []struct {
		name     string
		n, nodes int
		cm       charging.Model
		gen      func(testing.TB, int64, int, int, charging.Model) *Problem
		weighted bool
	}{
		{"uniform", 40, 120, sub, diffProblem, false},
		{"clustered", 40, 160, sub, clusteredProblem, false},
		{"uniform-weighted", 60, 180, lin, diffProblem, true},
		{"clustered-weighted", 60, 240, lin, clusteredProblem, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.gen(t, 17, tc.n, tc.nodes, tc.cm)
			rng := rand.New(rand.NewSource(23))
			if tc.weighted {
				rates := make([]float64, tc.n)
				over := make([]float64, tc.n)
				for i := range rates {
					rates[i] = 0.25 + 2*rng.Float64()
					over[i] = 40 * rng.Float64()
				}
				p.ReportRates = rates
				p.PostOverheads = over
				if err := p.Validate(); err != nil {
					t.Fatalf("weighted variant invalid: %v", err)
				}
			}
			var sw, sh EvalStats
			cur := make([]int, tc.n)
			for state := 0; state < 4; state++ {
				for i := range cur {
					cur[i] = 1 + rng.Intn(4)
				}
				walk, heap := twins(t, p, cur)
				for commit := 0; commit < 5; commit++ {
					for i := 0; i < tc.n; i++ {
						priceBothWays(t, tc.name, walk, heap, []Move{{Post: i, Delta: 1}})
						if err := walk.Revert(); err != nil {
							t.Fatal(err)
						}
						if err := heap.Revert(); err != nil {
							t.Fatal(err)
						}
						sameRepairState(t, tc.name+" reverted", walk, heap)
					}
					// Move to the next committed deployment: a unit add
					// (the walk) or a transfer (the heap path on both).
					to := rng.Intn(tc.n)
					moves := []Move{{Post: to, Delta: 1}}
					if from := rng.Intn(tc.n); from != to && cur[from] > 1 && rng.Intn(2) == 0 {
						moves = append(moves, Move{Post: from, Delta: -1})
						cur[from]--
					}
					cur[to]++
					priceBothWays(t, tc.name+" commit", walk, heap, moves)
					if err := walk.Commit(); err != nil {
						t.Fatal(err)
					}
					if err := heap.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				sw = addStats(sw, walk.Stats())
				sh = addStats(sh, heap.Stats())
			}
			if sw.Repairs != sh.Repairs || sw.Fallbacks != sh.Fallbacks {
				t.Errorf("repairs/fallbacks %d/%d walk, %d/%d heap", sw.Repairs, sw.Fallbacks, sh.Repairs, sh.Fallbacks)
			}
			if sh.TreeRepairs != 0 || sh.TreeFallbacks != 0 {
				t.Errorf("heap-only evaluator walked: %+v", sh)
			}
			if 2*sw.TreeRepairs <= sw.Repairs {
				t.Errorf("walk priced %d of %d repairs, want a majority", sw.TreeRepairs, sw.Repairs)
			}
			t.Logf("%d repairs, %d walked, %d walk fallbacks", sw.Repairs, sw.TreeRepairs, sw.TreeFallbacks)
		})
	}
}

// addStats sums the repair counters the tree-repair tests read.
func addStats(a, b EvalStats) EvalStats {
	a.Repairs += b.Repairs
	a.Fallbacks += b.Fallbacks
	a.TreeRepairs += b.TreeRepairs
	a.TreeFallbacks += b.TreeFallbacks
	return a
}

// diamondProblem puts a relay P (post 2) in direct reach of the BS, A
// (0) and B (1) in reach of P but not of the BS, and C (3) in reach of A
// and B only. A line of filler posts along the negative x axis keeps
// the graph above tinyVerts without touching the diamond.
func diamondProblem(t *testing.T, a, b, c geom.Point) *Problem {
	t.Helper()
	posts := []geom.Point{a, b, {X: 70, Y: 0}, c}
	for k := 1; k <= 14; k++ {
		posts = append(posts, geom.Point{X: -40 * float64(k), Y: 0})
	}
	p := &Problem{
		Posts:    posts,
		Nodes:    1000,
		Energy:   lineProblem(t, 1, 1).Energy,
		Charging: charging.Model{EtaSingle: 1, Gain: charging.Linear()},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("diamond problem invalid: %v", err)
	}
	return p
}

// twins returns a walking evaluator and a heap-only one, both committed
// to m.
func twins(t *testing.T, p *Problem, m []int) (walk, heap *IncrementalEvaluator) {
	t.Helper()
	var err error
	if walk, err = NewIncrementalEvaluator(p); err != nil {
		t.Fatal(err)
	}
	if heap, err = NewIncrementalEvaluator(p); err != nil {
		t.Fatal(err)
	}
	heap.heapOnly = true
	for _, ev := range []*IncrementalEvaluator{walk, heap} {
		if _, err := ev.Cost(m); err != nil {
			t.Fatal(err)
		}
	}
	return walk, heap
}

const diamondA, diamondB, diamondP, diamondC = 0, 1, 2, 3

// TestTreeRepairTieMovesParent builds a mirror-symmetric diamond whose
// committed tree sends C through B although its route through A ties
// bit for bit (B was stronger until A caught up). Strengthening P
// improves A and B alike; the walk prices C through B, and A, queued
// for that tie, re-ties C when it pops. The heap path settles A first
// (equal distance, lower index), so C must move to A — by the walk, with
// no fallback.
func TestTreeRepairTieMovesParent(t *testing.T) {
	p := diamondProblem(t, geom.Point{X: 130, Y: 20}, geom.Point{X: 130, Y: -20}, geom.Point{X: 190, Y: 0})
	m := make([]int, p.N())
	for i := range m {
		m[i] = 2
	}
	m[diamondB] = 3
	walk, heap := twins(t, p, m)
	if walk.par[diamondC] != diamondB {
		t.Fatalf("C routes through %d, want B", walk.par[diamondC])
	}
	priceBothWays(t, "catch A up", walk, heap, []Move{{Post: diamondA, Delta: 1}})
	for _, ev := range []*IncrementalEvaluator{walk, heap} {
		if err := ev.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if walk.par[diamondC] != diamondB || walk.dist[diamondA] != walk.dist[diamondB] {
		t.Fatalf("diamond not tied as intended: C through %d, A at %.17g, B at %.17g",
			walk.par[diamondC], walk.dist[diamondA], walk.dist[diamondB])
	}
	before := walk.Stats()
	priceBothWays(t, "strengthen P", walk, heap, []Move{{Post: diamondP, Delta: 1}})
	st := walk.Stats()
	if st.TreeRepairs != before.TreeRepairs+1 || st.TreeFallbacks != before.TreeFallbacks {
		t.Fatalf("strengthen P: %d walks, %d fallbacks; want the walk to settle the tie",
			st.TreeRepairs-before.TreeRepairs, st.TreeFallbacks-before.TreeFallbacks)
	}
	if walk.par[diamondC] != diamondA {
		t.Fatalf("strengthen P: C routes through %d, want A", walk.par[diamondC])
	}
}

// TestTreeRepairRoundingFallsBack builds an asymmetric diamond: C
// reaches P through A on a level-2 then a level-1 hop, or through B on
// a level-1 then a level-2 hop. The two routes cost the same in exact
// arithmetic but round differently, so when P strengthens, B's route
// can come out below the walked one, and the queued B then improves the
// walked C. The walk must hand such probes to the heap path. The sweep
// over strengths pins every probe to the heap path, and needs both
// outcomes to occur.
func TestTreeRepairRoundingFallsBack(t *testing.T) {
	p := diamondProblem(t, geom.Point{X: 130, Y: 0}, geom.Point{X: 70, Y: 40}, geom.Point{X: 135, Y: 40})
	var walked, fellBack int64
	for mc := 1; mc <= 5; mc++ {
		for mp := 1; mp <= 30; mp++ {
			m := make([]int, p.N())
			for i := range m {
				m[i] = 1
			}
			m[diamondA], m[diamondB], m[diamondC] = mc, mc, mc
			m[diamondP] = mp
			walk, heap := twins(t, p, m)
			priceBothWays(t, fmt.Sprintf("mc=%d mp=%d", mc, mp), walk, heap, []Move{{Post: diamondP, Delta: 1}})
			st := walk.Stats()
			walked += st.TreeRepairs
			fellBack += st.TreeFallbacks
		}
	}
	if walked == 0 || fellBack == 0 {
		t.Fatalf("%d walks, %d fallbacks; want both", walked, fellBack)
	}
	t.Logf("%d walks, %d fallbacks", walked, fellBack)
}

// BenchmarkCostDeltaUnitAdd prices IDB's candidate shape — one more
// node at one post — and reverts it, so every repair takes the subtree
// walk from a table built once for the committed state.
func BenchmarkCostDeltaUnitAdd(b *testing.B) {
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
	moves := make([]Move, 1)
	probe := func(i int) {
		moves[0] = Move{Post: i % p.N(), Delta: 1}
		if _, err := ev.CostDelta(moves); err != nil {
			b.Fatal(err)
		}
		if err := ev.Revert(); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the table and the journal, stack and heap buffers.
	for i := 0; i < p.N(); i++ {
		probe(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe(i)
	}
	b.StopTimer()
	if st := ev.Stats(); st.TreeRepairs == 0 {
		b.Fatal("no probe took the subtree walk")
	}
}
