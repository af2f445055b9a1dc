package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/geom"
)

// foldPinCase is one seeded branching tree with heterogeneous report
// rates, per-post overheads and some dead posts: the inputs the
// leaves-first folds in SubtreeLoads and EvaluateDegraded run over.
type foldPinCase struct {
	name  string
	p     *Problem
	tree  Tree
	alive []int
}

func foldPinCases(t *testing.T) []foldPinCase {
	t.Helper()
	var cases []foldPinCase
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + 10*int(seed)
		side := 50 * math.Sqrt(float64(n))
		p, err := GenerateProblem(rng, GenSpec{
			Field:    geom.Field{Width: side, Height: side},
			Posts:    n,
			Nodes:    3 * n,
			Charging: charging.Model{EtaSingle: 0.4, Gain: charging.Sublinear(0.8)},
			Layout:   LayoutClustered,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.ReportRates = make([]float64, n)
		p.PostOverheads = make([]float64, n)
		alive := make([]int, n)
		for i := range p.ReportRates {
			p.ReportRates[i] = 0.1 + 2.9*rng.Float64()
			p.PostOverheads[i] = 5 * rng.Float64()
			alive[i] = 1 + rng.Intn(4)
			if rng.Intn(6) == 0 {
				alive[i] = 0
			}
		}
		for _, b := range []struct {
			name  string
			build func(*Problem) (Tree, error)
		}{{"mst", MinSpanningTree}, {"minenergy", MinEnergyTree}} {
			tree, err := b.build(p)
			if err != nil {
				t.Fatal(err)
			}
			// The pin means something only if the fold has a choice:
			// some post must merge two subtrees, and some dead post
			// must have live traffic to drop.
			var branching, dropping bool
			kids := make([]int, n)
			for i, par := range tree.Parent {
				if par < n {
					kids[par]++
					dropping = dropping || (alive[par] == 0 && alive[i] > 0)
				}
			}
			for _, k := range kids {
				branching = branching || k >= 2
			}
			if !branching || !dropping {
				t.Fatalf("seed %d/%s: tree not branching (%v) or no dead relay (%v)", seed, b.name, branching, dropping)
			}
			cases = append(cases, foldPinCase{fmt.Sprintf("seed%d/%s", seed, b.name), p, tree, alive})
		}
	}
	return cases
}

// foldPinDigest folds the float64 bit patterns of v into one FNV-1a
// word, so a single table entry pins every element exactly.
func foldPinDigest(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		b := math.Float64bits(x)
		for k := 0; k < 8; k++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return h
}

// TestLeavesFirstFoldPin pins the exact float results of the two
// leaves-first load folds on branching trees. The folds add children
// into parents in the order graph.LeavesFirst visits them; a different
// (still valid) topological order would round differently, so this
// table — recorded before the folds moved onto the shared order — pins
// the order itself, not just the value to a tolerance.
func TestLeavesFirstFoldPin(t *testing.T) {
	want := map[string][2]uint64{
		"seed1/mst":       {0x5756c800744d120e, 0x40c98c5020869bac},
		"seed1/minenergy": {0xeed08b31a68036e3, 0x40ca28f9f59a5d18},
		"seed2/mst":       {0x87c3aee9d59fa6fb, 0x40cc346979bc3a47},
		"seed2/minenergy": {0xbd7a4c393ef18ab7, 0x40c4d6b5c7a4bb8a},
		"seed3/mst":       {0xd42a3fb85d0add03, 0x40e084861f0d1eeb},
		"seed3/minenergy": {0xb1a3ebd31daf2393, 0x40dcce2fc92fe350},
	}
	for _, c := range foldPinCases(t) {
		loads := c.tree.SubtreeLoads(c.p)
		cost, err := EvaluateDegraded(c.p, c.alive, c.tree)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]uint64{foldPinDigest(loads), math.Float64bits(cost)}
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no pinned value", c.name)
			continue
		}
		if got[0] != w[0] {
			t.Errorf("%s: SubtreeLoads digest %#x, pinned %#x", c.name, got[0], w[0])
		}
		if got[1] != w[1] {
			t.Errorf("%s: EvaluateDegraded = %v (bits %#x), pinned bits %#x (%v)",
				c.name, cost, got[1], w[1], math.Float64frombits(w[1]))
		}
	}
}
