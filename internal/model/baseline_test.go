package model

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/energy"
	"wrsn/internal/geom"
)

func TestMinSpanningTreeLine(t *testing.T) {
	p := lineProblem(t, 4, 4)
	tree, err := MinSpanningTree(p)
	if err != nil {
		t.Fatal(err)
	}
	// On the 30m-spaced line the MST is exactly the hop chain: each 30m
	// link (58.1 nJ) is cheaper than any 60m skip (91.2 nJ).
	wantParents := []int{4, 0, 1, 2}
	for i, want := range wantParents {
		if tree.Parent[i] != want {
			t.Errorf("MST parent[%d] = %d, want %d", i, tree.Parent[i], want)
		}
	}
}

func TestMinSpanningTreeValidOnRandomFields(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	field := geom.Square(250)
	built := 0
	for trial := 0; trial < 30 && built < 10; trial++ {
		p := &Problem{
			Posts:    field.RandomPoints(rng, 20),
			BS:       field.Corner(),
			Nodes:    40,
			Energy:   energy.Default(),
			Charging: charging.Default(),
		}
		if p.Validate() != nil {
			continue
		}
		built++
		tree, err := MinSpanningTree(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tree.Validate(p); err != nil {
			t.Fatalf("trial %d: MST invalid: %v", trial, err)
		}
		// Total link energy of the MST never exceeds the shortest-path
		// baseline's (MSTs minimise exactly that sum).
		mstLinks := totalLinkEnergy(t, p, tree)
		spt, err := MinEnergyTree(p)
		if err != nil {
			t.Fatal(err)
		}
		if sptLinks := totalLinkEnergy(t, p, spt); mstLinks > sptLinks+1e-6 {
			t.Errorf("trial %d: MST link energy %.3f exceeds SPT's %.3f", trial, mstLinks, sptLinks)
		}
	}
	if built == 0 {
		t.Skip("no connected instances drawn")
	}
}

func totalLinkEnergy(t *testing.T, p *Problem, tree Tree) float64 {
	t.Helper()
	var total float64
	for i := range tree.Parent {
		total += p.Energy.TxEnergyAtLevel(tree.Level[i])
	}
	return total
}

func TestMinSpanningTreeDisconnected(t *testing.T) {
	p := lineProblem(t, 2, 2)
	p.Posts[1] = geom.Point{X: 500, Y: 500}
	if _, err := MinSpanningTree(p); err == nil {
		t.Error("disconnected field accepted")
	}
}

// TestMinSpanningTreeMatchesPairLoop pins MinSpanningTree, which reads
// hop energies from the communication topology, to the pair loop it
// replaced: Prim's algorithm pricing every relaxation by distance and
// power level, +Inf out of range. Fields are wide enough that many
// pairs are out of range and some draws are disconnected, where both
// must fail.
func TestMinSpanningTreeMatchesPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var compared, disconnected int
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(40)
		field := geom.Square(100 + 300*rng.Float64())
		p := &Problem{
			Posts:    field.RandomPoints(rng, n),
			BS:       field.Corner(),
			Nodes:    2 * n,
			Energy:   energy.Default(),
			Charging: charging.Default(),
		}
		want, wantErr := pairLoopMST(p)
		got, err := MinSpanningTree(p)
		if wantErr != nil {
			if !errors.Is(err, ErrDisconnected) {
				t.Fatalf("trial %d: pair loop failed (%v), topology MST returned %v", trial, wantErr, err)
			}
			disconnected++
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(got.Parent, want) {
			t.Fatalf("trial %d: parents %v, pair loop %v", trial, got.Parent, want)
		}
		compared++
	}
	if compared < 30 || disconnected == 0 {
		t.Fatalf("%d connected and %d disconnected draws; want both kinds", compared, disconnected)
	}
}

// pairLoopMST is MinSpanningTree's former pair loop, kept as its oracle.
func pairLoopMST(p *Problem) ([]int, error) {
	n := p.N()
	parents := make([]int, n)
	bestCost := make([]float64, n)
	bestTo := make([]int, n)
	inTree := make([]bool, n+1)
	linkCost := func(u, v int) float64 {
		e, err := p.Energy.TxEnergy(geom.Dist(p.Posts[u], p.Point(v)))
		if err != nil {
			return math.Inf(1)
		}
		return e
	}
	inTree[p.BSIndex()] = true
	for u := 0; u < n; u++ {
		parents[u] = -1
		bestCost[u] = linkCost(u, p.BSIndex())
		bestTo[u] = p.BSIndex()
	}
	for added := 0; added < n; added++ {
		pick, pickCost := -1, math.Inf(1)
		for u := 0; u < n; u++ {
			if !inTree[u] && bestCost[u] < pickCost {
				pick, pickCost = u, bestCost[u]
			}
		}
		if pick < 0 {
			return nil, ErrDisconnected
		}
		inTree[pick] = true
		parents[pick] = bestTo[pick]
		for u := 0; u < n; u++ {
			if inTree[u] {
				continue
			}
			if c := linkCost(u, pick); c < bestCost[u] {
				bestCost[u] = c
				bestTo[u] = pick
			}
		}
	}
	return parents, nil
}
