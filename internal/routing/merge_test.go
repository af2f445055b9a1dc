package routing

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"wrsn/internal/geom"
	"wrsn/internal/model"
)

// gridSpec builds a MergeSpec over explicit post positions with the
// paper's default 3-level energy model semantics baked in via a simple
// threshold table.
func specFor(posts []geom.Point, bs geom.Point) MergeSpec {
	all := append(append([]geom.Point(nil), posts...), bs)
	return MergeSpec{
		NPosts: len(posts),
		TxEnergyBetween: func(u, v int) (float64, bool) {
			switch d := geom.Dist(all[u], all[v]); {
			case d <= 25:
				return 50.5, true
			case d <= 50:
				return 58.1, true
			case d <= 75:
				return 91.1, true
			default:
				return 0, false
			}
		},
	}
}

// TestMergeSiblingsBasic: two siblings sit close together but far from
// their parent; the lighter one should re-parent under the heavier one.
func TestMergeSiblingsBasic(t *testing.T) {
	// parent at origin-ish; two children ~70m away but 10m apart.
	posts := []geom.Point{
		{X: 10, Y: 10},  // 0: the parent post
		{X: 10, Y: 80},  // 1: child, heavy (given a subtree below)
		{X: 20, Y: 80},  // 2: child, light
		{X: 10, Y: 100}, // 3: grandchild of 1 (makes 1 heavier)
	}
	parent := []int{4, 0, 0, 1} // BS = 4
	spec := specFor(posts, geom.Point{X: 0, Y: 0})
	stats, err := new(Merger).Merge(spec, parent)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if stats.Reparented != 1 || stats.Groups != 1 {
		t.Fatalf("stats = %+v, want 1 group with 1 member", stats)
	}
	if parent[2] != 1 {
		t.Errorf("light child should route via heavy sibling: parent[2] = %d, want 1", parent[2])
	}
	if parent[1] != 0 {
		t.Errorf("head must stay under the original parent: parent[1] = %d", parent[1])
	}
}

// TestMergeSiblingsRequiresStrictlyCheaper: siblings at the same level
// band as the parent hop must not merge.
func TestMergeSiblingsRequiresStrictlyCheaper(t *testing.T) {
	posts := []geom.Point{
		{X: 10, Y: 10}, // parent
		{X: 10, Y: 30}, // child within 25m of parent
		{X: 20, Y: 30}, // child within 25m of both parent and sibling
	}
	parent := []int{3, 0, 0}
	spec := specFor(posts, geom.Point{X: 0, Y: 0})
	stats, err := new(Merger).Merge(spec, parent)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reparented != 0 {
		t.Errorf("merged %d children whose parent hop was already cheapest", stats.Reparented)
	}
	if parent[1] != 0 || parent[2] != 0 {
		t.Errorf("parents changed: %v", parent)
	}
}

// TestMergeSiblingsOutOfRange: a sibling outside transmission range can
// never become a head for that child.
func TestMergeSiblingsOutOfRange(t *testing.T) {
	posts := []geom.Point{
		{X: 40, Y: 0},   // parent
		{X: 40, Y: 70},  // child A (needs l3 to parent)
		{X: 40, Y: 160}, // child B: 90m from A, unreachable
	}
	// B cannot actually reach the parent either (90+ m) — give it a
	// different parent to keep the tree valid, and check A's group only.
	parent := []int{3, 0, 1}
	spec := specFor(posts, geom.Point{X: 0, Y: 0})
	if _, err := new(Merger).Merge(spec, parent); err != nil {
		t.Fatal(err)
	}
	if parent[1] != 0 {
		t.Errorf("child A re-parented to unreachable sibling: %v", parent)
	}
}

// TestMergeSiblingsNeverCreatesCycles on random trees.
func TestMergeSiblingsNeverCreatesCycles(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := problemFor(t, seed+500, 300, 30, 90)
		dag, err := p.FatTree(p.EnergyWeights())
		if err != nil {
			t.Fatal(err)
		}
		trimmed, err := Trim(dag, p.N())
		if err != nil {
			t.Fatal(err)
		}
		spec := MergeSpec{
			NPosts: p.N(),
			TxEnergyBetween: func(u, v int) (float64, bool) {
				e, err := p.Energy.TxEnergy(geom.Dist(p.Posts[u], p.Point(v)))
				if err != nil {
					return 0, false
				}
				return e, true
			},
		}
		if _, err := new(Merger).Merge(spec, trimmed.Parent); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := model.NewTreeFromParents(p, trimmed.Parent); err != nil {
			t.Fatalf("seed %d: merged parents invalid: %v", seed, err)
		}
	}
}

func TestMergeSiblingsValidation(t *testing.T) {
	spec := specFor([]geom.Point{{X: 1, Y: 1}}, geom.Point{})
	if _, err := new(Merger).Merge(spec, []int{0, 1}); err == nil {
		t.Error("wrong-size parent vector accepted")
	}
	if _, err := new(Merger).Merge(spec, []int{0}); err == nil {
		t.Error("self-parent accepted")
	}
}

// mergeSiblingsOracle is the allocating Phase-III merge Merger.Merge
// replaced (append-built child lists, a sort.Slice candidate copy and a
// map of assignments per sibling group), kept verbatim as the reference
// TestMergerMatchesOracle compares against.
func mergeSiblingsOracle(spec MergeSpec, parent []int) (MergeStats, error) {
	n := spec.NPosts
	if len(parent) != n {
		return MergeStats{}, fmt.Errorf("routing: parent vector covers %d posts, want %d", len(parent), n)
	}
	if spec.Skip != nil && len(spec.Skip) != n {
		return MergeStats{}, fmt.Errorf("routing: skip mask covers %d posts, want %d", len(spec.Skip), n)
	}
	skipped := func(u int) bool { return spec.Skip != nil && spec.Skip[u] }

	children := make([][]int, n+1)
	for u := 0; u < n; u++ {
		if skipped(u) {
			continue
		}
		p := parent[u]
		if p < 0 || p > n || p == u {
			return MergeStats{}, fmt.Errorf("routing: post %d has invalid parent %d", u, p)
		}
		children[p] = append(children[p], u)
	}
	workload := treeWorkloads(parent, spec.Skip, nil, nil, nil)

	var stats MergeStats
	for v := 0; v <= n; v++ {
		kids := children[v]
		if len(kids) < 2 {
			continue
		}
		ordered := append([]int(nil), kids...)
		sort.Slice(ordered, func(a, b int) bool {
			wa, wb := workload[ordered[a]], workload[ordered[b]]
			if wa != wb {
				return wa > wb
			}
			return ordered[a] < ordered[b]
		})
		assigned := make(map[int]bool, len(ordered))
		for _, head := range ordered {
			if assigned[head] {
				continue
			}
			members := 0
			for _, c := range ordered {
				if c == head || assigned[c] {
					continue
				}
				costToParent, ok := spec.TxEnergyBetween(c, v)
				if !ok {
					return MergeStats{}, fmt.Errorf("routing: post %d cannot reach its parent %d", c, v)
				}
				costToHead, ok := spec.TxEnergyBetween(c, head)
				if !ok || costToHead >= costToParent {
					continue
				}
				parent[c] = head
				assigned[c] = true
				members++
				stats.Reparented++
			}
			if members > 0 {
				assigned[head] = true
				stats.Groups++
			}
		}
	}
	return stats, nil
}

// randomMergeCase builds a random forest over n posts (base station =
// vertex n) and a random hop-energy table drawn from three levels, so
// ties and infeasible sibling hops are common. With skip, about a
// quarter of the posts are skipped: they keep a stale parent (-1 or an
// active post) and no active post routes through them. Every active
// post's hop to its parent is feasible.
func randomMergeCase(rng *rand.Rand, n int, skip bool) (MergeSpec, []int) {
	var mask []bool
	if skip {
		mask = make([]bool, n)
		for u := range mask {
			mask[u] = rng.Intn(4) == 0
		}
	}
	parent := make([]int, n)
	var placed []int
	for _, u := range rng.Perm(n) {
		if mask != nil && mask[u] {
			continue
		}
		if len(placed) == 0 || rng.Intn(5) == 0 {
			parent[u] = n
		} else {
			parent[u] = placed[rng.Intn(len(placed))]
		}
		placed = append(placed, u)
	}
	for u := range parent {
		if mask != nil && mask[u] {
			parent[u] = -1
			if len(placed) > 0 && rng.Intn(2) == 0 {
				parent[u] = placed[rng.Intn(len(placed))]
			}
		}
	}
	levels := []float64{50.5, 58.1, 91.1}
	energy := make([][]float64, n+1)
	for u := range energy {
		energy[u] = make([]float64, n+1)
		for v := range energy[u] {
			if rng.Intn(5) == 0 {
				energy[u][v] = -1 // infeasible
			} else {
				energy[u][v] = levels[rng.Intn(len(levels))]
			}
		}
	}
	for u, p := range parent {
		if p >= 0 && energy[u][p] < 0 {
			energy[u][p] = levels[2]
		}
	}
	spec := MergeSpec{
		NPosts: n,
		TxEnergyBetween: func(u, v int) (float64, bool) {
			e := energy[u][v]
			return e, e >= 0
		},
		Skip: mask,
	}
	return spec, parent
}

// TestMergerMatchesOracle pins Merger.Merge to the allocating oracle:
// identical parent vectors, MergeStats and errors on random forests
// with and without skip masks and on trimmed fat trees, all through one
// reused Merger so stale scratch from a larger or differently shaped
// call would show.
func TestMergerMatchesOracle(t *testing.T) {
	var m Merger
	check := func(name string, spec MergeSpec, parent []int) {
		t.Helper()
		want := append([]int(nil), parent...)
		wantStats, wantErr := mergeSiblingsOracle(spec, want)
		got := append([]int(nil), parent...)
		gotStats, gotErr := m.Merge(spec, got)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
		}
		if gotStats != wantStats {
			t.Fatalf("%s: stats %+v, oracle %+v", name, gotStats, wantStats)
		}
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("%s: parent[%d] = %d, oracle %d", name, u, got[u], want[u])
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	reparented := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		if trial%50 == 0 {
			n = 200 // a large call between small ones
		}
		skip := trial%2 == 1
		spec, parent := randomMergeCase(rng, n, skip)
		check(fmt.Sprintf("random trial %d (n=%d skip=%v)", trial, n, skip), spec, parent)
		stats, _ := mergeSiblingsOracle(spec, append([]int(nil), parent...))
		reparented += stats.Reparented
	}
	if reparented == 0 {
		t.Fatal("no random case merged anything")
	}
	for seed := int64(1); seed <= 5; seed++ {
		p := problemFor(t, seed+500, 300, 30, 90)
		dag, err := p.FatTree(p.EnergyWeights())
		if err != nil {
			t.Fatal(err)
		}
		trimmed, err := Trim(dag, p.N())
		if err != nil {
			t.Fatal(err)
		}
		cg, err := model.NewCommGraph(p)
		if err != nil {
			t.Fatal(err)
		}
		spec := MergeSpec{NPosts: p.N(), TxEnergyBetween: cg.TxBetween}
		check(fmt.Sprintf("trimmed seed %d", seed), spec, trimmed.Parent)
	}
	// Invalid inputs fail the same way.
	spec, parent := randomMergeCase(rng, 10, false)
	parent[3] = 3
	check("self-parent", spec, parent)
	parent[3] = 11
	check("parent out of range", spec, parent)
}

// BenchmarkMergeSiblings prices one Phase-III merge of a trimmed
// 100-post fat tree through a reused Merger. Its steady state is
// allocation-free.
func BenchmarkMergeSiblings(b *testing.B) {
	p := problemFor(b, 7, 500, 100, 300)
	dag, err := p.FatTree(p.EnergyWeights())
	if err != nil {
		b.Fatal(err)
	}
	trimmed, err := Trim(dag, p.N())
	if err != nil {
		b.Fatal(err)
	}
	cg, err := model.NewCommGraph(p)
	if err != nil {
		b.Fatal(err)
	}
	spec := MergeSpec{NPosts: p.N(), TxEnergyBetween: cg.TxBetween}
	work := make([]int, p.N())
	var m Merger
	copy(work, trimmed.Parent)
	stats, err := m.Merge(spec, work)
	if err != nil {
		b.Fatal(err)
	}
	if stats.Reparented == 0 {
		b.Fatal("the benchmark tree merges nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, trimmed.Parent)
		if _, err := m.Merge(spec, work); err != nil {
			b.Fatal(err)
		}
	}
}
