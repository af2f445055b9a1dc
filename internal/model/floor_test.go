package model

import (
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
)

// TestFloorBoundAdmissible is the property behind branch and bound's
// floor rejections: for any floor deployment F and any child C <= F
// componentwise, the floor bound never exceeds the oracle's MinCost(C),
// and PruneByFloor never rejects a child whose cost is below the limit.
// It covers the scan-min regime and the repair regime, sublinear, linear
// and saturating gains, and instances with and without heterogeneous
// rates and per-post overheads. The floor is committed through delta
// probes, not only Cost, so repaired distances are what it copies.
func TestFloorBoundAdmissible(t *testing.T) {
	gains := map[string]charging.Model{
		"sublinear":  {EtaSingle: 0.5, Gain: charging.Sublinear(0.8)},
		"linear":     {EtaSingle: 1, Gain: charging.Linear()},
		"saturating": {EtaSingle: 1, Gain: charging.Saturating(3)},
	}
	sizes := map[string][]int{
		"tiny":   {4, 7, 9, 12, 15}, // n+1 <= tinyVerts
		"repair": {20, 32},
	}
	for gname, cm := range gains {
		for sname, ns := range sizes {
			for _, overhead := range []bool{false, true} {
				name := gname + "/" + sname
				if overhead {
					name += "/overhead"
				}
				t.Run(name, func(t *testing.T) {
					for k, n := range ns {
						seed := int64(100*k + n)
						p := diffProblem(t, seed, n, 4*n, cm)
						if overhead {
							weightProblem(t, p, seed)
						}
						checkFloorBound(t, p, seed)
					}
				})
			}
		}
	}
}

// weightProblem gives p heterogeneous report rates and per-post
// overheads.
func weightProblem(t *testing.T, p *Problem, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := p.N()
	p.ReportRates = make([]float64, n)
	p.PostOverheads = make([]float64, n)
	for i := range p.ReportRates {
		p.ReportRates[i] = 0.25 + 2*rng.Float64()
		p.PostOverheads[i] = 400 * rng.Float64()
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("weighted problem invalid: %v", err)
	}
}

func checkFloorBound(t *testing.T, p *Problem, seed int64) {
	t.Helper()
	n := p.N()
	oracle, err := NewCostEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncrementalEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	floorM := make([]int, n)
	child := make([]int, n)
	var floor Floor
	var rejected int
	for trial := 0; trial < 60; trial++ {
		// Commit F: a fresh Cost, then a few delta probes toward F.
		for i := range floorM {
			floorM[i] = 1 + rng.Intn(6)
		}
		if _, err := inc.Cost(floorM); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			post := rng.Intn(n)
			mv := Move{Post: post, Delta: 1}
			if floorM[post] > 1 && rng.Intn(2) == 0 {
				mv.Delta = -1
			}
			if _, err := inc.CostDelta([]Move{mv}); err != nil {
				t.Fatal(err)
			}
			if err := inc.Commit(); err != nil {
				t.Fatal(err)
			}
			floorM[post] += mv.Delta
		}
		if err := inc.SaveFloor(&floor); err != nil {
			t.Fatal(err)
		}
		floorCost, err := oracle.MinCost(floorM)
		if err != nil {
			t.Fatal(err)
		}

		// Draw C <= F; every fifth trial keeps C == F, where the floor
		// is the exact answer.
		for i, f := range floorM {
			child[i] = f
			if trial%5 != 0 && rng.Intn(2) == 0 {
				child[i] = 1 + rng.Intn(f)
			}
		}
		want, err := oracle.MinCost(child)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := inc.floorBound(&floor, child)
		if err != nil {
			t.Fatalf("trial %d: floorBound: %v", trial, err)
		}
		if lb > want {
			t.Fatalf("trial %d: floor bound %.17g exceeds MinCost %.17g (floor %v, child %v)", trial, lb, want, floorM, child)
		}
		if lb < floorCost {
			t.Fatalf("trial %d: floor bound %.17g below the floor's own cost %.17g", trial, lb, floorCost)
		}
		if trial%5 == 0 && lb != want {
			t.Fatalf("trial %d: C == F but bound %.17g != MinCost %.17g", trial, lb, want)
		}

		// Never reject a child cheaper than the limit, at the tightest
		// limits above its cost and at random ones.
		for _, limit := range []float64{
			math.Nextafter(want, math.Inf(1)),
			want + boundedSlack,
			want * (1 + rng.Float64()),
		} {
			doomed, err := inc.PruneByFloor(&floor, child, limit)
			if err != nil {
				t.Fatal(err)
			}
			if doomed {
				t.Fatalf("trial %d: rejected a child of cost %.17g at limit %.17g", trial, want, limit)
			}
		}
		// ...and do reject once the limit falls below the bound.
		doomed, err := inc.PruneByFloor(&floor, child, lb-2*boundedSlack)
		if err != nil {
			t.Fatal(err)
		}
		if !doomed {
			t.Fatalf("trial %d: bound %.17g did not reject at limit %.17g", trial, lb, lb-2*boundedSlack)
		}
		rejected++

		// The committed state is untouched: an empty probe still prices F.
		got, err := inc.CostDelta(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != floorCost {
			t.Fatalf("trial %d: committed cost %.17g after PruneByFloor, want %.17g", trial, got, floorCost)
		}
		if err := inc.Revert(); err != nil {
			t.Fatal(err)
		}
	}
	if st := inc.Stats(); st.FloorPrunes != int64(rejected) {
		t.Errorf("FloorPrunes = %d, want %d", st.FloorPrunes, rejected)
	}
}

// TestFloorBoundErrors pins the misuse errors: a child above its floor,
// mismatched lengths, saving a floor with no committed deployment or
// with a probe pending.
func TestFloorBoundErrors(t *testing.T) {
	p := diffProblem(t, 3, 6, 18, charging.Default())
	inc, err := NewIncrementalEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	var floor Floor
	if err := inc.SaveFloor(&floor); err == nil {
		t.Error("SaveFloor with no committed deployment succeeded")
	}
	base := []int{3, 3, 3, 3, 3, 3}
	if _, err := inc.Cost(base); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.CostDelta([]Move{{Post: 0, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := inc.SaveFloor(&floor); err == nil {
		t.Error("SaveFloor with a pending probe succeeded")
	}
	if err := inc.Revert(); err != nil {
		t.Fatal(err)
	}
	if err := inc.SaveFloor(&floor); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string][]int{
		"above floor": {4, 3, 3, 3, 3, 3},
		"zero count":  {0, 3, 3, 3, 3, 3},
		"short":       {3, 3, 3},
	} {
		if _, err := inc.PruneByFloor(&floor, m, 0); err == nil {
			t.Errorf("%s: PruneByFloor(%v) succeeded", name, m)
		}
	}
	if _, err := inc.PruneByFloor(&Floor{}, base, 0); err == nil {
		t.Error("PruneByFloor with an empty floor succeeded")
	}
}
