package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/placement"
)

// plainInstance hides the production evaluator's optional capabilities
// (ProbeCache, BoundedProber) behind the bare 4-method protocol,
// forcing the solvers onto their uncached paths. Comparing a
// normal run against a plainInstance run pins the dirty-candidate
// pruning contract: bit-identical costs and solutions with no more —
// and on cache-friendly inputs strictly fewer — evaluations.
type plainInstance struct {
	model.Instance
}

func (pi plainInstance) NewEvaluator() (model.Evaluator, error) {
	ev, err := pi.Instance.NewEvaluator()
	if err != nil {
		return nil, err
	}
	return &plainEvaluator{ev: ev}, nil
}

// plainEvaluator forwards exactly the Evaluator protocol and nothing
// else.
type plainEvaluator struct {
	ev model.Evaluator
}

func (p *plainEvaluator) Cost(m []int) (float64, error)                 { return p.ev.Cost(m) }
func (p *plainEvaluator) CostDelta(moves []model.Move) (float64, error) { return p.ev.CostDelta(moves) }
func (p *plainEvaluator) Commit() error                                 { return p.ev.Commit() }
func (p *plainEvaluator) Revert() error                                 { return p.ev.Revert() }

// testPlacementInstance mirrors the placement package's differential
// instance: parameter spread so probes cross coverage boundaries.
func testPlacementInstance(t testing.TB, seed int64) *placement.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	field := geom.Field{Width: 400, Height: 400}
	sites := placement.GridSites(geom.Point{}, geom.Point{X: field.Width, Y: field.Height}, placement.SiteSpec{
		Grid: 5, Cost: 1, Power: 3, Radius: 150,
	})
	for j := range sites {
		sites[j].Cost = 0.5 + rng.Float64()
		sites[j].Power = 2 + 2*rng.Float64()
		sites[j].Radius = 80 + 140*rng.Float64()
	}
	const posts = 40
	demand := make([]float64, posts)
	for i := range demand {
		demand[i] = 0.5 + rng.Float64()
	}
	inst := &placement.Instance{
		Posts:      field.RandomPoints(rng, posts),
		Sites:      sites,
		Demand:     demand,
		Penalty:    50,
		Decay:      0.01,
		MaxPerSite: 6,
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("placement instance invalid: %v", err)
	}
	return inst
}

// TestIDBDirtyPruningDifferential runs IDB with and without the probe
// cache over both problem families and pins bit-identical costs and
// solution vectors while requiring the cached run to evaluate no more —
// and in aggregate strictly fewer — candidates.
func TestIDBDirtyPruningDifferential(t *testing.T) {
	ctx := context.Background()
	var cachedTotal, plainTotal int64
	run := func(name string, inst model.Instance) {
		cached, err := IDB(ctx, plainlessWrap(inst), IDBOptions{Delta: 1, Workers: 1})
		if err != nil {
			t.Fatalf("%s: cached IDB: %v", name, err)
		}
		plain, err := IDB(ctx, plainInstance{inst}, IDBOptions{Delta: 1, Workers: 1})
		if err != nil {
			t.Fatalf("%s: plain IDB: %v", name, err)
		}
		if math.Float64bits(cached.Cost) != math.Float64bits(plain.Cost) {
			t.Fatalf("%s: cached cost %.17g != plain cost %.17g", name, cached.Cost, plain.Cost)
		}
		if cached.Vector == nil || plain.Vector == nil {
			t.Fatalf("%s: missing solution vectors", name)
		}
		for i := range cached.Vector {
			if cached.Vector[i] != plain.Vector[i] {
				t.Fatalf("%s: vectors diverge at %d: %v vs %v", name, i, cached.Vector, plain.Vector)
			}
		}
		if cached.Evaluations > plain.Evaluations {
			t.Fatalf("%s: cached run evaluated more (%d) than plain (%d)", name, cached.Evaluations, plain.Evaluations)
		}
		cachedTotal += cached.Evaluations
		plainTotal += plain.Evaluations
	}
	for _, seed := range []int64{1, 5, 9} {
		run("deployment", instanceOnly{randomProblem(t, seed, 245, 24, 72)})
		run("placement", testPlacementInstance(t, seed))
	}
	if cachedTotal >= plainTotal {
		t.Errorf("dirty-candidate pruning saved nothing: cached %d, plain %d evaluations", cachedTotal, plainTotal)
	}
}

// TestLocalSearchDirtyPruningDifferential is the same pin for the
// hill-climber's first-improvement sweeps.
func TestLocalSearchDirtyPruningDifferential(t *testing.T) {
	ctx := context.Background()
	var cachedTotal, plainTotal int64
	run := func(name string, inst model.Instance, start *Result) {
		opts := LocalSearchOptions{Start: start}
		cached, err := LocalSearch(ctx, plainlessWrap(inst), opts)
		if err != nil {
			t.Fatalf("%s: cached climb: %v", name, err)
		}
		plain, err := LocalSearch(ctx, plainInstance{inst}, opts)
		if err != nil {
			t.Fatalf("%s: plain climb: %v", name, err)
		}
		if math.Float64bits(cached.Cost) != math.Float64bits(plain.Cost) {
			t.Fatalf("%s: cached cost %.17g != plain cost %.17g", name, cached.Cost, plain.Cost)
		}
		for i := range cached.Vector {
			if cached.Vector[i] != plain.Vector[i] {
				t.Fatalf("%s: vectors diverge at %d: %v vs %v", name, i, cached.Vector, plain.Vector)
			}
		}
		if cached.Evaluations > plain.Evaluations {
			t.Fatalf("%s: cached run evaluated more (%d) than plain (%d)", name, cached.Evaluations, plain.Evaluations)
		}
		cachedTotal += cached.Evaluations
		plainTotal += plain.Evaluations
	}
	for _, seed := range []int64{2, 7} {
		p := randomProblem(t, seed, 225, 20, 60)
		// A deterministic valid start: floors plus round-robin remainder.
		vec := make([]int, p.N())
		for i := range vec {
			vec[i] = 1
		}
		for k := 0; k < p.Nodes-p.N(); k++ {
			vec[k%p.N()]++
		}
		start := &Result{Vector: vec}
		run("deployment", instanceOnly{p}, start)
		run("placement", testPlacementInstance(t, seed), nil)
	}
	if cachedTotal >= plainTotal {
		t.Errorf("dirty-candidate pruning saved nothing: cached %d, plain %d evaluations", cachedTotal, plainTotal)
	}
}

// instanceOnly strips *model.Problem down to the Instance interface so
// both the cached and plain runs take the generic instance path (the
// deployment fast path asserts on the concrete type).
type instanceOnly struct {
	model.Instance
}

// plainlessWrap routes an instance through the same wrapper depth as
// plainInstance without hiding any capability, so the two runs differ
// only in what the evaluator exposes.
func plainlessWrap(inst model.Instance) model.Instance {
	return instanceOnly{inst}
}
