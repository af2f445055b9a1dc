package model

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/energy"
	"wrsn/internal/geom"
)

// lineProblem builds n posts in a straight line 30m apart from the BS at
// the origin: post i sits at ((i+1)*30, 0). Each hop needs level 2
// (range 50m); only post 0 can also reach the BS directly; post i can
// reach post i-2 at 60m with level 3.
func lineProblem(t testing.TB, n, m int) *Problem {
	t.Helper()
	posts := make([]geom.Point, n)
	for i := range posts {
		posts[i] = geom.Point{X: float64(i+1) * 30, Y: 0}
	}
	p := &Problem{
		Posts:    posts,
		BS:       geom.Point{},
		Nodes:    m,
		Energy:   energy.Default(),
		Charging: charging.Default(),
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("line problem invalid: %v", err)
	}
	return p
}

func TestProblemValidate(t *testing.T) {
	p := lineProblem(t, 3, 5)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}

	noPosts := &Problem{BS: geom.Point{}, Nodes: 1, Energy: energy.Default(), Charging: charging.Default()}
	if err := noPosts.Validate(); err == nil {
		t.Error("problem without posts accepted")
	}

	tooFewNodes := lineProblem(t, 3, 5)
	tooFewNodes.Nodes = 2
	if err := tooFewNodes.Validate(); err == nil {
		t.Error("M < N accepted")
	}

	disconnected := lineProblem(t, 3, 5)
	disconnected.Posts[2] = geom.Point{X: 1000, Y: 1000}
	if err := disconnected.Validate(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("disconnected problem error = %v, want ErrDisconnected", err)
	}

	badEnergy := lineProblem(t, 3, 5)
	badEnergy.Energy.Ranges = nil
	if err := badEnergy.Validate(); err == nil {
		t.Error("empty energy ranges accepted")
	}

	badCharging := lineProblem(t, 3, 5)
	badCharging.Charging.EtaSingle = 0
	if err := badCharging.Validate(); err == nil {
		t.Error("zero eta accepted")
	}
}

func TestNewTreeFromParentsPicksMinimalLevels(t *testing.T) {
	p := lineProblem(t, 3, 3)
	tree, err := NewTreeFromParents(p, []int{3, 0, 1}) // chain 2->1->0->BS
	if err != nil {
		t.Fatal(err)
	}
	// Every hop is 30m: level 1 (0-based index 1, range 50m).
	for i, lvl := range tree.Level {
		if lvl != 1 {
			t.Errorf("post %d level = %d, want 1 (30m hop)", i, lvl)
		}
	}
	// Post 2 direct to post 0 is 60m: level 2.
	tree2, err := NewTreeFromParents(p, []int{3, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Level[2] != 2 {
		t.Errorf("60m hop level = %d, want 2", tree2.Level[2])
	}
}

func TestTreeValidateRejects(t *testing.T) {
	p := lineProblem(t, 3, 3)
	valid, err := NewTreeFromParents(p, []int{3, 0, 1})
	if err != nil {
		t.Fatal(err)
	}

	cycle := valid.Clone()
	cycle.Parent = []int{1, 0, 1} // 0 <-> 1
	if err := cycle.Validate(p); !errors.Is(err, ErrCycle) {
		t.Errorf("cycle error = %v, want ErrCycle", err)
	}

	selfParent := valid.Clone()
	selfParent.Parent[1] = 1
	if err := selfParent.Validate(p); err == nil {
		t.Error("self-parent accepted")
	}

	outOfRangeHop := valid.Clone()
	outOfRangeHop.Parent[2] = 3 // post 2 at 90m cannot reach the BS
	if err := outOfRangeHop.Validate(p); err == nil {
		t.Error("90m hop accepted")
	}

	underLevel := valid.Clone()
	underLevel.Level[0] = 0 // 30m hop declared at 25m level
	if err := underLevel.Validate(p); err == nil {
		t.Error("level that cannot cover its hop accepted")
	}

	badLevel := valid.Clone()
	badLevel.Level[0] = 7
	if err := badLevel.Validate(p); err == nil {
		t.Error("nonexistent level accepted")
	}

	wrongSize := Tree{Parent: []int{3}, Level: []int{0}}
	if err := wrongSize.Validate(p); err == nil {
		t.Error("wrong-size tree accepted")
	}
}

func TestSubtreeSizesAndEnergies(t *testing.T) {
	p := lineProblem(t, 4, 4)
	// Chain: 3 -> 2 -> 1 -> 0 -> BS.
	tree, err := NewTreeFromParents(p, []int{4, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	sizes := tree.SubtreeSizes(p)
	for i, want := range []int{4, 3, 2, 1} {
		if sizes[i] != want {
			t.Errorf("subtree[%d] = %d, want %d", i, sizes[i], want)
		}
	}
	// Post 0: transmits 4 bits at level 1 (e = 50 + 1.3e-6*50^4),
	// receives 3 bits at 50 nJ.
	e2 := 50 + 1.3e-6*math.Pow(50, 4)
	energies := tree.PostEnergies(p)
	want := 4*e2 + 3*50
	if math.Abs(energies[0]-want) > 1e-9 {
		t.Errorf("E_0 = %v, want %v", energies[0], want)
	}
	// Leaf post 3: one transmission, no receptions.
	if math.Abs(energies[3]-e2) > 1e-9 {
		t.Errorf("E_3 = %v, want %v", energies[3], e2)
	}

	depths := tree.Depth(p)
	for i, want := range []int{1, 2, 3, 4} {
		if depths[i] != want {
			t.Errorf("depth[%d] = %d, want %d", i, depths[i], want)
		}
	}
	children := tree.Children(p)
	if len(children[4]) != 1 || children[4][0] != 0 {
		t.Errorf("BS children = %v, want [0]", children[4])
	}
}

func TestEvaluateHandComputed(t *testing.T) {
	// Two posts in a chain, 3 nodes: m = [2, 1].
	p := lineProblem(t, 2, 3)
	tree, err := NewTreeFromParents(p, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	e2 := 50 + 1.3e-6*math.Pow(50, 4)
	// E_0 = 2*e2 + 1*50 (forwards post 1's bit), E_1 = e2.
	// cost = E_0/2 + E_1/1 with eta=1, linear gain.
	want := (2*e2+50)/2 + e2
	got, err := Evaluate(p, Deployment{2, 1}, tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Evaluate = %v, want %v", got, want)
	}

	// Swapping the spare node to the leaf is strictly worse.
	worse, err := Evaluate(p, Deployment{1, 2}, tree)
	if err != nil {
		t.Fatal(err)
	}
	if worse <= got {
		t.Errorf("spare node on the leaf should cost more: %v <= %v", worse, got)
	}
}

func TestEvaluateValidatesInputs(t *testing.T) {
	p := lineProblem(t, 2, 3)
	tree, err := NewTreeFromParents(p, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(p, Deployment{1, 1}, tree); err == nil {
		t.Error("deployment summing to 2 (not 3) accepted")
	}
	if _, err := Evaluate(p, Deployment{3, 0}, tree); err == nil {
		t.Error("empty post accepted")
	}
	if _, err := Evaluate(p, Deployment{2, 1, 1}, tree); err == nil {
		t.Error("wrong-length deployment accepted")
	}
}

func TestDeploymentHelpers(t *testing.T) {
	d, err := UniformDeployment(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Sum() != 8 {
		t.Errorf("Sum = %d, want 8", d.Sum())
	}
	for i, m := range d {
		if m < 2 || m > 3 {
			t.Errorf("uniform deployment uneven at %d: %v", i, d)
		}
	}
	if d.Max() != 3 {
		t.Errorf("Max = %d", d.Max())
	}
	if _, err := UniformDeployment(3, 2); err == nil {
		t.Error("M < N accepted")
	}
	if _, err := UniformDeployment(0, 2); err == nil {
		t.Error("zero posts accepted")
	}
	ones := Ones(4)
	if ones.Sum() != 4 {
		t.Errorf("Ones sum = %d", ones.Sum())
	}
	clone := d.Clone()
	clone[0] = 99
	if d[0] == 99 {
		t.Error("Clone aliases storage")
	}
}

func TestBestTreeForMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	field := geom.Square(250)
	for trial := 0; trial < 10; trial++ {
		p := &Problem{
			Posts:    field.RandomPoints(rng, 15),
			BS:       field.Corner(),
			Nodes:    45,
			Energy:   energy.Default(),
			Charging: charging.Default(),
		}
		if p.Validate() != nil {
			continue
		}
		deploy, err := UniformDeployment(p.N(), p.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		tree, cost, err := BestTreeFor(p, deploy)
		if err != nil {
			t.Fatal(err)
		}
		evaluated, err := Evaluate(p, deploy, tree)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cost-evaluated) > 1e-6 {
			t.Fatalf("trial %d: BestTreeFor cost %.6f != Evaluate %.6f", trial, cost, evaluated)
		}
		// No other tree can beat it: check a few random valid parent
		// assignments never cost less.
		ev, err := NewCostEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		minCost, err := ev.MinCost(deploy)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(minCost-cost) > 1e-6 {
			t.Fatalf("trial %d: evaluator MinCost %.6f != BestTreeFor %.6f", trial, minCost, cost)
		}
	}
}

// TestCostMonotoneInNodes is the invariant the exact solver's bound needs:
// adding a node anywhere never increases the optimal cost.
func TestCostMonotoneInNodes(t *testing.T) {
	p := lineProblem(t, 5, 10)
	ev, err := NewCostEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		m := make([]int, 5)
		for i := range m {
			m[i] = 1 + rng.Intn(4)
		}
		base, err := ev.MinCost(m)
		if err != nil {
			t.Fatal(err)
		}
		i := rng.Intn(5)
		m[i]++
		better, err := ev.MinCost(m)
		if err != nil {
			t.Fatal(err)
		}
		if better > base+1e-9 {
			t.Fatalf("adding a node at post %d increased cost: %.6f -> %.6f (m=%v)", i, base, better, m)
		}
	}
}

func TestMinEnergyTree(t *testing.T) {
	p := lineProblem(t, 4, 4)
	tree, err := MinEnergyTree(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(p); err != nil {
		t.Fatalf("baseline tree invalid: %v", err)
	}
	// With receive energy counted, relaying costs tx+rx >= 108 nJ per
	// hop, so post 1 (60m) goes straight to the BS at level 3 (91.2 nJ);
	// post 2 (90m) is out of direct range and relays via post 0 (ties
	// with the post-1 route resolve to the lower index); post 3 relays
	// via post 1 (60m hop beats climbing the chain).
	wantParents := []int{4, 4, 0, 1}
	for i, want := range wantParents {
		if tree.Parent[i] != want {
			t.Errorf("parent[%d] = %d, want %d", i, tree.Parent[i], want)
		}
	}
}

func TestBuildGraphEdgeSemantics(t *testing.T) {
	p := lineProblem(t, 2, 2)
	g, err := p.BuildGraph(p.EnergyWeights())
	if err != nil {
		t.Fatal(err)
	}
	// Post 0 (30m from BS, 30m from post 1): two outgoing edges.
	if len(g.Out(0)) != 2 {
		t.Errorf("post 0 out-degree = %d, want 2", len(g.Out(0)))
	}
	// Post 1 at 60m from BS: reaches both BS (level 3) and post 0.
	if len(g.Out(1)) != 2 {
		t.Errorf("post 1 out-degree = %d, want 2", len(g.Out(1)))
	}
	// The base station never transmits.
	if len(g.Out(p.BSIndex())) != 0 {
		t.Errorf("BS transmits: %v", g.Out(p.BSIndex()))
	}
}

func TestRechargeCostWeightsReceiverTerm(t *testing.T) {
	p := lineProblem(t, 2, 4)
	wf, err := p.RechargeCostWeights(Deployment{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	e2 := 50 + 1.3e-6*math.Pow(50, 4)
	// Post 1 -> post 0: tx/1 + rx/3 (receiver has 3 nodes).
	got := wf(1, 0, e2)
	want := e2/1 + 50.0/3
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("weight(1->0) = %v, want %v", got, want)
	}
	// Post 0 -> BS: no receiver term.
	got = wf(0, p.BSIndex(), e2)
	want = e2 / 3
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("weight(0->BS) = %v, want %v", got, want)
	}
	if _, err := p.RechargeCostWeights(Deployment{1}); err == nil {
		t.Error("wrong-size deployment accepted")
	}
}
