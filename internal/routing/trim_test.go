package routing

import (
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/deploy"
	"wrsn/internal/energy"
	"wrsn/internal/geom"
	"wrsn/internal/graph"
	"wrsn/internal/model"
)

// dagFrom builds a *graph.DAG by hand: parents[u] lists u's tight parents
// and dist[u] its distance to the target (strictly decreasing along
// edges), letting tests encode the paper's figures without geometry.
func dagFrom(target int, dist []float64, parents [][]int) *graph.DAG {
	return &graph.DAG{Target: target, Dist: dist, Parents: parents}
}

// TestFig5TrimExample encodes the paper's Fig. 5 walkthrough. Posts
// A..J = 0..9, BS = 10. The fat tree:
//
//	A,B,C,D,G -> BS;  E -> {A,B};  F -> {C,B};  I -> {E};
//	H -> {D,E,I};  J -> {G,I}
//
// The paper trims it in three effective steps: examining B (workload 5)
// deletes (E,A), (F,C), (H,D), (J,G); examining E deletes nothing;
// examining I deletes (H,E). Five deletions total, and the final tree
// routes E,F under B, I under E, and H,J under I.
func TestFig5TrimExample(t *testing.T) {
	const (
		postA = iota
		postB
		postC
		postD
		postE
		postF
		postG
		postH
		postI
		postJ
		bs
	)
	dist := []float64{1, 1, 1, 1, 2, 2, 1, 4, 3, 4, 0}
	parents := [][]int{
		postA: {bs},
		postB: {bs},
		postC: {bs},
		postD: {bs},
		postE: {postA, postB},
		postF: {postB, postC},
		postG: {bs},
		postH: {postD, postE, postI},
		postI: {postE},
		postJ: {postG, postI},
	}
	res, err := Trim(dagFrom(bs, dist, parents), 10)
	if err != nil {
		t.Fatalf("Trim: %v", err)
	}
	if res.Deleted != 5 {
		t.Errorf("deleted %d edges, the paper's walkthrough deletes 5", res.Deleted)
	}
	wantParent := map[int]int{
		postA: bs, postB: bs, postC: bs, postD: bs, postG: bs,
		postE: postB, postF: postB,
		postI: postE,
		postH: postI, postJ: postI,
	}
	for post, want := range wantParent {
		if res.Parent[post] != want {
			t.Errorf("parent of post %c = %d, want %d", 'A'+post, res.Parent[post], want)
		}
	}
	// Final tree workloads: B carries everything below it.
	wantWorkload := map[int]int{postB: 5, postE: 3, postI: 2, postA: 0, postH: 0}
	for post, want := range wantWorkload {
		if res.Workload[post] != want {
			t.Errorf("workload of post %c = %d, want %d", 'A'+post, res.Workload[post], want)
		}
	}
}

// TestFig4WorkloadConcentration encodes Fig. 4: three equivalent relay
// posts A,B,C and three leaves that can route through any of them. The
// trim must funnel all leaves through a single relay, and with 7 nodes
// over 6 posts the concentrated tree recharges for 7e versus the balanced
// tree's 8e (the figure's exact numbers, receive energy ignored as in the
// figure).
func TestFig4WorkloadConcentration(t *testing.T) {
	const (
		relayA = iota
		relayB
		relayC
		leaf1
		leaf2
		leaf3
		bs
	)
	dist := []float64{1, 1, 1, 2, 2, 2, 0}
	parents := [][]int{
		relayA: {bs},
		relayB: {bs},
		relayC: {bs},
		leaf1:  {relayA, relayB, relayC},
		leaf2:  {relayA, relayB, relayC},
		leaf3:  {relayA, relayB, relayC},
	}
	res, err := Trim(dagFrom(bs, dist, parents), 6)
	if err != nil {
		t.Fatalf("Trim: %v", err)
	}
	// All leaves share one relay.
	head := res.Parent[leaf1]
	if head != res.Parent[leaf2] || head != res.Parent[leaf3] {
		t.Fatalf("leaves not concentrated: parents %v", res.Parent[leaf1:leaf3+1])
	}
	if res.Workload[head] != 3 {
		t.Errorf("head workload %d, want 3", res.Workload[head])
	}

	// The figure's cost arithmetic with unit transmit energy e per bit
	// and 7 nodes: concentrated = 7e, balanced = 8e.
	const e = 1.0
	cost := func(perPostBits []float64, m []int) float64 {
		var total float64
		for i, bits := range perPostBits {
			total += bits * e / float64(m[i])
		}
		return total
	}
	concentratedBits := make([]float64, 6)
	for i := 0; i < 6; i++ {
		concentratedBits[i] = 1 // own report
	}
	concentratedBits[head] += 3 // forwards all leaves
	mConc, err := deploy.Allocate(concentratedBits, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := cost(concentratedBits, mConc); math.Abs(got-7) > 1e-9 {
		t.Errorf("concentrated recharging cost = %ve, figure says 7e (deployment %v)", got, mConc)
	}
	balancedBits := []float64{2, 2, 2, 1, 1, 1} // one leaf per relay
	mBal := []int{2, 1, 1, 1, 1, 1}             // the extra node helps one relay
	if got := cost(balancedBits, mBal); math.Abs(got-8) > 1e-9 {
		t.Errorf("balanced recharging cost = %ve, figure says 8e", got)
	}
}

func TestTrimErrors(t *testing.T) {
	if _, err := Trim(nil, 0); err == nil {
		t.Error("nil DAG accepted")
	}
	// Post that cannot reach the target.
	dag := dagFrom(1, []float64{math.Inf(1), 0}, [][]int{{}})
	if _, err := Trim(dag, 1); err == nil {
		t.Error("unreachable post accepted")
	}
	// Target mismatch.
	dag = dagFrom(0, []float64{0, 1}, [][]int{nil, {0}})
	if _, err := Trim(dag, 2); err == nil {
		t.Error("target/post-count mismatch accepted")
	}
}

// problemFor builds a connected random instance for property tests.
func problemFor(t *testing.T, seed int64, side float64, n, m int) *model.Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	field := geom.Square(side)
	for attempt := 0; attempt < 200; attempt++ {
		p := &model.Problem{
			Posts:    field.RandomPoints(rng, n),
			BS:       field.Corner(),
			Nodes:    m,
			Energy:   energy.Default(),
			Charging: charging.Default(),
		}
		if p.Validate() == nil {
			return p
		}
	}
	t.Skipf("no connected instance for seed %d", seed)
	return nil
}

// TestTrimPreservesShortestPaths is the key Phase-II invariant: the
// trimmed tree only uses fat-tree edges, so every post's path cost along
// the tree equals its Phase-I shortest-path distance.
func TestTrimPreservesShortestPaths(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		p := problemFor(t, seed, 300, 40, 120)
		dag, err := p.FatTree(p.EnergyWeights())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Trim(dag, p.N())
		if err != nil {
			t.Fatal(err)
		}
		tree, err := model.NewTreeFromParents(p, res.Parent)
		if err != nil {
			t.Fatalf("seed %d: trimmed parents form no valid tree: %v", seed, err)
		}
		edgeCost := func(from, to int) float64 {
			e, err := p.Energy.TxEnergy(geom.Dist(p.Posts[from], p.Point(to)))
			if err != nil {
				t.Fatalf("edge (%d,%d): %v", from, to, err)
			}
			return e
		}
		for u := 0; u < p.N(); u++ {
			got := PathCost(tree.Parent, p.N(), u, edgeCost)
			if math.Abs(got-dag.Dist[u]) > 1e-6 {
				t.Fatalf("seed %d post %d: tree path cost %.6f != shortest distance %.6f",
					seed, u, got, dag.Dist[u])
			}
		}
	}
}

// TestTrimDeterministic: identical inputs give identical outputs.
func TestTrimDeterministic(t *testing.T) {
	p := problemFor(t, 3, 300, 50, 150)
	dag, err := p.FatTree(p.EnergyWeights())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Trim(dag, p.N())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Trim(dag, p.N())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Parent {
		if a.Parent[i] != b.Parent[i] {
			t.Fatalf("non-deterministic parent at post %d: %d vs %d", i, a.Parent[i], b.Parent[i])
		}
	}
}

// TestTrimConcentratesAtLeastAsWellAsFirstChoice: the workload-ordered
// trim should produce a maximum subtree no smaller than a naive
// first-parent resolution of the same DAG.
func TestTrimConcentration(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := problemFor(t, seed+100, 300, 40, 120)
		dag, err := p.FatTree(p.EnergyWeights())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Trim(dag, p.N())
		if err != nil {
			t.Fatal(err)
		}
		naiveParents := make([]int, p.N())
		for u := range naiveParents {
			naiveParents[u] = dag.Parents[u][0]
		}
		maxLoad := func(parent []int) int {
			w := treeWorkloads(parent, nil, nil, nil, nil)
			best := 0
			for _, v := range w {
				if v > best {
					best = v
				}
			}
			return best
		}
		if got, naive := maxLoad(res.Parent), maxLoad(naiveParents); got < naive {
			t.Errorf("seed %d: trim concentrated less (max subtree %d) than naive first-parent (%d)",
				seed, got, naive)
		}
	}
}

// TestTrimWeightedPrefersHeavyTraffic: with heterogeneous rates, the
// trim should route shared descendants through the relay that carries the
// heavier traffic. Two relays A and B can each serve two leaves; leaf L1
// (huge rate) is only reachable via A, so A's weighted workload dominates
// and the shared leaf L2 must concentrate under A as well.
func TestTrimWeightedPrefersHeavyTraffic(t *testing.T) {
	const (
		relayA = iota
		relayB
		leafHeavy  // only child of A
		leafLight  // only child of B
		leafShared // reachable via both
		bs
	)
	dist := []float64{1, 1, 2, 2, 2, 0}
	parents := [][]int{
		relayA:     {bs},
		relayB:     {bs},
		leafHeavy:  {relayA},
		leafLight:  {relayB},
		leafShared: {relayA, relayB},
	}
	rates := []float64{1, 1, 10, 1, 1}
	res, err := TrimWeighted(dagFrom(bs, dist, parents), 5, rates)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parent[leafShared] != relayA {
		t.Errorf("shared leaf routed via %d, want the heavy relay %d", res.Parent[leafShared], relayA)
	}

	// Flip the heavy rate to B's side: the shared leaf must follow it.
	rates = []float64{1, 1, 1, 10, 1}
	res, err = TrimWeighted(dagFrom(bs, dist, parents), 5, rates)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parent[leafShared] != relayB {
		t.Errorf("shared leaf routed via %d, want the heavy relay %d", res.Parent[leafShared], relayB)
	}
}

func TestTrimWeightedValidation(t *testing.T) {
	dag := dagFrom(1, []float64{1, 0}, [][]int{{1}})
	if _, err := TrimWeighted(dag, 1, []float64{1, 2}); err == nil {
		t.Error("wrong-length rates accepted")
	}
	// nil rates behave exactly like Trim.
	a, err := Trim(dag, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrimWeighted(dag, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Parent[0] != b.Parent[0] {
		t.Error("nil-rate TrimWeighted differs from Trim")
	}
}
