package graph

import (
	"math"
	"math/rand"
	"testing"
)

// lineGraph builds 0 -> 1 -> 2 -> ... -> n-1 with unit weights.
func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewBuilder(3)
	cases := []struct {
		name string
		u, v int
		w    float64
	}{
		{"self loop", 1, 1, 1},
		{"u out of range", 3, 0, 1},
		{"v out of range", 0, -1, 1},
		{"negative weight", 0, 1, -0.5},
		{"NaN weight", 0, 1, math.NaN()},
		{"Inf weight", 0, 1, math.Inf(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := g.AddEdge(tc.u, tc.v, tc.w); err == nil {
				t.Error("invalid edge accepted")
			}
		})
	}
	if err := g.AddEdge(0, 1, 0); err != nil {
		t.Errorf("zero-weight edge rejected: %v", err)
	}
	if built := g.Build(); built.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", built.NumEdges())
	}
}

func TestDistancesToLine(t *testing.T) {
	g := lineGraph(t, 5)
	dist, err := NewRouter(g).DistancesTo(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{4, 3, 2, 1, 0} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], want)
		}
	}
	// Reverse direction: nothing reaches vertex 0 except itself.
	dist, err = NewRouter(g).DistancesTo(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 0 {
		t.Errorf("dist[0] = %v", dist[0])
	}
	for i := 1; i < 5; i++ {
		if !math.IsInf(dist[i], 1) {
			t.Errorf("dist[%d] = %v, want +Inf", i, dist[i])
		}
	}
}

func TestDistancesToPicksCheaperParallelEdge(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	dist, err := NewRouter(b.Build()).DistancesTo(1)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 2 {
		t.Errorf("dist[0] = %v, want 2 (cheaper parallel edge)", dist[0])
	}
}

func TestDistancesToErrors(t *testing.T) {
	g := NewBuilder(2).Build()
	if _, err := NewRouter(g).DistancesTo(2); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := NewRouter(g).DistancesTo(-1); err == nil {
		t.Error("negative target accepted")
	}
}

// randomGraph builds a random DAG-ish directed graph for property tests.
func randomGraph(rng *rand.Rand, n int, density float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < density {
				_ = b.AddEdge(u, v, rng.Float64()*100)
			}
		}
	}
	return b.Build()
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.15)
		target := rng.Intn(n)
		fast, err := NewRouter(g).DistancesTo(target)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := g.BellmanFordTo(target)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if math.IsInf(fast[v], 1) != math.IsInf(slow[v], 1) {
				t.Fatalf("trial %d: reachability disagrees at %d: %v vs %v", trial, v, fast[v], slow[v])
			}
			if !math.IsInf(fast[v], 1) && math.Abs(fast[v]-slow[v]) > 1e-6 {
				t.Fatalf("trial %d: dist[%d] = %v (dijkstra) vs %v (bellman-ford)", trial, v, fast[v], slow[v])
			}
		}
	}
}

func TestShortestPathDAGTightEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, 0.2)
		target := rng.Intn(n)
		dag, err := g.ShortestPathDAG(target, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			if u == target || !dag.Reachable(u) {
				if len(dag.Parents[u]) != 0 && u == target {
					t.Fatalf("target has parents")
				}
				continue
			}
			if len(dag.Parents[u]) == 0 {
				t.Fatalf("reachable vertex %d has no tight parent", u)
			}
			for _, v := range dag.Parents[u] {
				// Every listed parent must be tight via some edge u->v.
				best := math.Inf(1)
				for _, e := range g.Out(u) {
					if e.To == v && e.Weight < best {
						best = e.Weight
					}
				}
				if math.Abs(dag.Dist[u]-(best+dag.Dist[v])) > 1e-6 {
					t.Fatalf("parent %d of %d not tight: %v != %v + %v", v, u, dag.Dist[u], best, dag.Dist[v])
				}
				// Tight parents strictly decrease distance when weights
				// are strictly positive; allow equality for zero weights.
				if dag.Dist[v] > dag.Dist[u]+1e-9 {
					t.Fatalf("parent %d is farther than child %d", v, u)
				}
			}
		}
	}
}

func TestShortestPathDAGMultipleParents(t *testing.T) {
	// Diamond: 0 -> {1, 2} -> 3 with equal-cost sides.
	b := NewBuilder(4)
	for _, e := range []struct {
		u, v int
		w    float64
	}{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1}} {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	dag, err := b.Build().ShortestPathDAG(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dag.Parents[0]) != 2 {
		t.Errorf("vertex 0 should have 2 tight parents, got %v", dag.Parents[0])
	}
	if dag.Dist[0] != 2 {
		t.Errorf("dist[0] = %v, want 2", dag.Dist[0])
	}
}

func TestShortestPathDAGToleranceRejectsNegative(t *testing.T) {
	g := NewBuilder(2).Build()
	if _, err := g.ShortestPathDAG(0, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestInOutViews(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddBoth(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if len(g.Out(0)) != 1 || g.Out(0)[0].To != 1 {
		t.Errorf("Out(0) = %v", g.Out(0))
	}
	if len(g.In(1)) != 2 {
		t.Errorf("In(1) = %v, want 2 edges", g.In(1))
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Errorf("counts: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
}

// FuzzDijkstraVsBellmanFord pins the CSR Dijkstra against the retained
// Bellman-Ford oracle on fuzzer-shaped graphs.
func FuzzDijkstraVsBellmanFord(f *testing.F) {
	f.Add(int64(42), uint8(12), uint8(40), uint8(3))
	f.Add(int64(9), uint8(30), uint8(200), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densityRaw, targetRaw uint8) {
		n := 2 + int(nRaw)%40
		density := float64(densityRaw) / 255 * 0.4
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, n, density)
		target := int(targetRaw) % n
		fast, err := NewRouter(g).DistancesTo(target)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := g.BellmanFordTo(target)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if math.IsInf(fast[v], 1) != math.IsInf(slow[v], 1) {
				t.Fatalf("reachability disagrees at %d: %v vs %v", v, fast[v], slow[v])
			}
			if !math.IsInf(fast[v], 1) && math.Abs(fast[v]-slow[v]) > 1e-6 {
				t.Fatalf("dist[%d] = %v (dijkstra) vs %v (bellman-ford)", v, fast[v], slow[v])
			}
		}
	})
}

// BenchmarkCSRRelax measures a full Dijkstra relax pass over the CSR
// layout via a Router (reused buffers). The CI alloc gate requires 0
// allocs/op.
func BenchmarkCSRRelax(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 300, 0.1)
	r := NewRouter(g)
	if _, err := r.DistancesTo(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.DistancesTo(0); err != nil {
			b.Fatal(err)
		}
	}
}
