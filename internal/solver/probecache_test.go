package solver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/placement"
)

// plainInstance hands the solvers the instance's reference evaluator,
// which keeps no probe slots and never prunes, so every candidate is a
// fresh from-scratch probe. Comparing a normal run against a
// plainInstance run pins the dirty-candidate pruning contract:
// bit-identical costs and solutions with no more — and on
// cache-friendly inputs strictly fewer — evaluations.
type plainInstance struct {
	model.Instance
}

func (pi plainInstance) NewEvaluator() (model.Evaluator, error) {
	return pi.Instance.NewReferenceEvaluator()
}

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

// TestIDBDirtyPruningDifferential runs IDB on the production evaluator
// and on the reference evaluator over both problem families and pins
// bit-identical costs and solution vectors while requiring the cached
// run to evaluate no more — and in aggregate strictly fewer —
// candidates.
func TestIDBDirtyPruningDifferential(t *testing.T) {
	ctx := context.Background()
	var cachedTotal, plainTotal int64
	run := func(name string, inst model.Instance) {
		cached, err := IDB(ctx, plainlessWrap(inst), IDBOptions{Delta: 1})
		if err != nil {
			t.Fatalf("%s: cached IDB: %v", name, err)
		}
		plain, err := IDB(ctx, plainInstance{inst}, IDBOptions{Delta: 1})
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
// plainInstance while keeping the production evaluator, so the two runs
// differ only in the evaluator.
func plainlessWrap(inst model.Instance) model.Instance {
	return instanceOnly{inst}
}

// exactPricingInstance hands the solvers an evaluator whose probe cache
// forwards both bounded pricing calls with the limit forced to +Inf, so
// no candidate is ever pruned: the reference run for the bounded
// pricing pin.
type exactPricingInstance struct {
	model.Instance
}

func (ei exactPricingInstance) NewEvaluator() (model.Evaluator, error) {
	ev, err := ei.Instance.NewEvaluator()
	if err != nil {
		return nil, err
	}
	return &exactPricingEvaluator{ev}, nil
}

// exactPricingEvaluator is the production evaluator with both bounded
// pricing calls forced to limit +Inf.
type exactPricingEvaluator struct {
	model.Evaluator
}

func (e *exactPricingEvaluator) CostDeltaCached(id int, moves []model.Move, _ float64) (float64, bool, error) {
	return e.Evaluator.CostDeltaCached(id, moves, math.Inf(1))
}

func (e *exactPricingEvaluator) CachedCostBounded(id int, _ float64) (float64, bool, bool) {
	return e.Evaluator.CachedCostBounded(id, math.Inf(1))
}

// recordingInstance keeps the deployment evaluators a solver builds, so
// a test can read their counters afterwards.
type recordingInstance struct {
	model.Instance
	evs []*model.IncrementalEvaluator
}

func (ri *recordingInstance) NewEvaluator() (model.Evaluator, error) {
	ev, err := ri.Instance.NewEvaluator()
	if ie, ok := ev.(*model.IncrementalEvaluator); ok {
		ri.evs = append(ri.evs, ie)
	}
	return ev, err
}

// pricePrunes sums the recorded evaluators' PricePrunes.
func (ri *recordingInstance) pricePrunes() int64 {
	var sum int64
	for _, ev := range ri.evs {
		sum += ev.Stats().PricePrunes
	}
	return sum
}

// sameResult fails unless a and b agree in cost bits, solution vector
// and evaluation count.
func sameResult(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		t.Fatalf("%s: cost %.17g != %.17g", name, a.Cost, b.Cost)
	}
	if len(a.Vector) == 0 || len(a.Vector) != len(b.Vector) {
		t.Fatalf("%s: solution vectors of length %d and %d", name, len(a.Vector), len(b.Vector))
	}
	for i := range a.Vector {
		if a.Vector[i] != b.Vector[i] {
			t.Fatalf("%s: vectors diverge at %d: %v vs %v", name, i, a.Vector, b.Vector)
		}
	}
	if a.Evaluations != b.Evaluations {
		t.Fatalf("%s: %d evaluations != %d", name, a.Evaluations, b.Evaluations)
	}
}

// TestBoundedPricingPin pins bounded candidate pricing to exact pricing:
// IDB (deployment at 60+ posts, uniform and clustered, plus placement
// through idbGrow) and LocalSearch must return the same cost bits,
// solution vector and evaluation count whether or not candidates are
// pruned against the running best. Every deployment run must actually
// prune.
func TestBoundedPricingPin(t *testing.T) {
	ctx := context.Background()
	clustered := func(seed int64, n, m int) *model.Problem {
		p, err := model.GenerateProblem(rand.New(rand.NewSource(seed)), model.GenSpec{
			Field: geom.Square(400), Posts: n, Nodes: m, Layout: model.LayoutClustered,
		})
		if err != nil {
			t.Fatalf("generate clustered: %v", err)
		}
		return p
	}
	idbInsts := map[string]model.Instance{
		"uniform-60":    randomProblem(t, 3, 400, 60, 180),
		"uniform-100":   randomProblem(t, 4, 500, 100, 300),
		"clustered-60":  clustered(5, 60, 240),
		"clustered-100": clustered(6, 100, 300),
		"placement":     testPlacementInstance(t, 3),
	}
	for name, inst := range idbInsts {
		rec := &recordingInstance{Instance: inst}
		bounded, err := IDB(ctx, rec, IDBOptions{Delta: 1})
		if err != nil {
			t.Fatalf("%s: IDB: %v", name, err)
		}
		if name != "placement" && rec.pricePrunes() == 0 {
			t.Errorf("%s: IDB pruned no candidate", name)
		}
		exact, err := IDB(ctx, exactPricingInstance{inst}, IDBOptions{Delta: 1})
		if err != nil {
			t.Fatalf("%s: exact-pricing IDB: %v", name, err)
		}
		sameResult(t, name+" idb", bounded, exact)
	}
	for _, seed := range []int64{2, 7} {
		p := randomProblem(t, seed, 400, 60, 180)
		vec := make([]int, p.N())
		for i := range vec {
			vec[i] = 1
		}
		for k := 0; k < p.Nodes-p.N(); k++ {
			vec[k%p.N()]++
		}
		for name, inst := range map[string]model.Instance{"deployment": p, "placement": testPlacementInstance(t, seed)} {
			var start *Result
			if name == "deployment" {
				start = &Result{Vector: vec}
			}
			opts := LocalSearchOptions{Start: start}
			rec := &recordingInstance{Instance: inst}
			bounded, err := LocalSearch(ctx, rec, opts)
			if err != nil {
				t.Fatalf("%s: LocalSearch: %v", name, err)
			}
			if name == "deployment" && rec.pricePrunes() == 0 {
				t.Errorf("seed %d: LocalSearch pruned no candidate", seed)
			}
			exact, err := LocalSearch(ctx, exactPricingInstance{inst}, opts)
			if err != nil {
				t.Fatalf("%s: exact-pricing LocalSearch: %v", name, err)
			}
			sameResult(t, fmt.Sprintf("%s seed %d local-search", name, seed), bounded, exact)
		}
	}
}

// TestIDBTakesTreeRepair requires deployment IDB at 60+ posts to price
// a majority of its repairs by the evaluator's subtree walk: every IDB
// candidate strengthens one post, so the heap path should be the
// exception (ties the walk hands back to it).
func TestIDBTakesTreeRepair(t *testing.T) {
	ctx := context.Background()
	clustered, err := model.GenerateProblem(rand.New(rand.NewSource(5)), model.GenSpec{
		Field: geom.Square(400), Posts: 60, Nodes: 240, Layout: model.LayoutClustered,
	})
	if err != nil {
		t.Fatalf("generate clustered: %v", err)
	}
	for name, p := range map[string]*model.Problem{
		"uniform-60":   randomProblem(t, 3, 400, 60, 180),
		"uniform-100":  randomProblem(t, 4, 500, 100, 300),
		"clustered-60": clustered,
	} {
		rec := &recordingInstance{Instance: p}
		if _, err := IDB(ctx, rec, IDBOptions{Delta: 1}); err != nil {
			t.Fatalf("%s: IDB: %v", name, err)
		}
		var st model.EvalStats
		for _, ev := range rec.evs {
			s := ev.Stats()
			st.Repairs += s.Repairs
			st.TreeRepairs += s.TreeRepairs
			st.TreeFallbacks += s.TreeFallbacks
		}
		if 2*st.TreeRepairs <= st.Repairs {
			t.Errorf("%s: subtree walk priced %d of %d repairs, want a majority", name, st.TreeRepairs, st.Repairs)
		}
		t.Logf("%s: %d repairs, %d walked, %d walk fallbacks", name, st.Repairs, st.TreeRepairs, st.TreeFallbacks)
	}
}
