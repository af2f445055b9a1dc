package solver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/geom"
	"wrsn/internal/model"
)

// optimalGoldenCase is one seeded instance of the exact-search golden
// table: a Fig. 7-shaped problem (200x200 m field) with an optional
// variant on top of the paper's defaults.
type optimalGoldenCase struct {
	seed         int64
	posts, nodes int
	variant      string // "", "overhead" or "saturating"
}

func (c optimalGoldenCase) String() string {
	name := fmt.Sprintf("%d-%d/seed%d", c.posts, c.nodes, c.seed)
	if c.variant != "" {
		name += "/" + c.variant
	}
	return name
}

// problem draws the case's instance. The overhead variant adds
// heterogeneous report rates and per-post overheads; the saturating
// variant caps the multi-node gain at five nodes, so efficiency
// plateaus and many count changes move no edge weight.
func (c optimalGoldenCase) problem(t testing.TB) *model.Problem {
	t.Helper()
	spec := model.GenSpec{Field: geom.Square(200), Posts: c.posts, Nodes: c.nodes}
	if c.variant == "saturating" {
		spec.Charging = charging.Model{EtaSingle: 1, Gain: charging.Saturating(5)}
	}
	p, err := model.GenerateProblem(rand.New(rand.NewSource(c.seed)), spec)
	if err != nil {
		t.Fatalf("%v: generate: %v", c, err)
	}
	if c.variant == "overhead" {
		rng := rand.New(rand.NewSource(c.seed + 1000))
		p.ReportRates = make([]float64, c.posts)
		p.PostOverheads = make([]float64, c.posts)
		for i := range p.ReportRates {
			p.ReportRates[i] = 0.5 + 1.5*rng.Float64()
			p.PostOverheads[i] = 400 * rng.Float64()
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: overhead variant invalid: %v", c, err)
		}
	}
	return p
}

// optimalGoldenCases lists the golden table's instances in table order:
// the exact-small benchmark shapes (8 posts/24 nodes, 10/20), the Fig.
// 7a (10 posts, 20-36 nodes) and Fig. 7b (36 nodes, 9-12 posts) shapes,
// and the overhead and saturating-gain variants.
func optimalGoldenCases() []optimalGoldenCase {
	var cases []optimalGoldenCase
	add := func(posts, nodes int, variant string, seeds ...int64) {
		for _, s := range seeds {
			cases = append(cases, optimalGoldenCase{seed: s, posts: posts, nodes: nodes, variant: variant})
		}
	}
	seq := func(from, to int64) []int64 {
		var s []int64
		for i := from; i <= to; i++ {
			s = append(s, i)
		}
		return s
	}
	add(8, 24, "", seq(1, 12)...)
	add(10, 20, "", seq(1, 12)...)
	add(10, 28, "", seq(21, 24)...)
	add(10, 36, "", 31, 34, 35, 36, 38)
	add(9, 36, "", 101, 104, 105)
	add(11, 36, "", 41, 43, 44, 46)
	add(12, 36, "", 52, 59)
	add(8, 24, "overhead", seq(61, 66)...)
	add(10, 36, "overhead", 73, 75)
	add(8, 24, "saturating", seq(81, 86)...)
	add(10, 36, "saturating", 91, 92, 94)
	return cases
}

// optimalGolden is one recorded Optimal result: the cost's bits, the
// deployment and the routing tree's parent vector.
type optimalGolden struct {
	costBits uint64
	deploy   []int
	parent   []int
}

// TestOptimalMatchesGolden pins Optimal's exact output — cost bits,
// deployment and parent vector — on a seeded table recorded before the
// branch-and-bound's floor bounds existed. Floor bounds only skip bound
// probes that would have been pruned anyway, so the explored tree, the
// incumbent chain and the returned plan must be bit-identical. The name
// matches CI's race-detector differential step.
func TestOptimalMatchesGolden(t *testing.T) {
	cases := optimalGoldenCases()
	if len(cases) != len(optimalGoldenTable) {
		t.Fatalf("%d cases but %d recorded results", len(cases), len(optimalGoldenTable))
	}
	for i, c := range cases {
		want := optimalGoldenTable[i]
		res, err := Optimal(context.Background(), c.problem(t), OptimalOptions{})
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if got := math.Float64bits(res.Cost); got != want.costBits {
			t.Errorf("%v: cost %.17g (bits %#x), recorded %.17g (bits %#x)",
				c, res.Cost, got, math.Float64frombits(want.costBits), want.costBits)
		}
		if !slices.Equal(res.Deploy, want.deploy) {
			t.Errorf("%v: deployment %v, recorded %v", c, res.Deploy, want.deploy)
		}
		if !slices.Equal(res.Tree.Parent, want.parent) {
			t.Errorf("%v: parents %v, recorded %v", c, res.Tree.Parent, want.parent)
		}
	}
}

// optimalGoldenTable holds Optimal's results for optimalGoldenCases, in
// order, recorded before floor bounds were added to the branch and bound.
var optimalGoldenTable = []optimalGolden{
	{0x408169dd55555555, []int{2, 2, 3, 2, 6, 2, 2, 5}, []int{2, 7, 7, 8, 8, 2, 4, 4}},                            // 8-24/seed1 557.23307291666663
	{0x40812bf555555556, []int{6, 2, 2, 5, 3, 2, 2, 2}, []int{8, 4, 3, 0, 3, 0, 0, 0}},                            // 8-24/seed2 549.49479166666674
	{0x408af5d2aaaaaaaa, []int{5, 3, 1, 3, 1, 2, 5, 4}, []int{6, 3, 1, 7, 0, 0, 8, 0}},                            // 8-24/seed3 862.72786458333326
	{0x40817576db6db6dc, []int{2, 2, 5, 2, 7, 2, 2, 2}, []int{2, 4, 4, 4, 8, 2, 2, 2}},                            // 8-24/seed4 558.68303571428578
	{0x40840d62aaaaaaaa, []int{1, 3, 2, 3, 5, 2, 2, 6}, []int{7, 4, 3, 1, 7, 7, 4, 8}},                            // 8-24/seed5 641.67317708333326
	{0x4087d3a800000000, []int{4, 2, 1, 5, 5, 5, 1, 1}, []int{3, 0, 0, 4, 5, 8, 0, 5}},                            // 8-24/seed6 762.45703125
	{0x408ec47800000000, []int{1, 2, 2, 5, 2, 4, 4, 4}, []int{4, 5, 7, 6, 5, 7, 8, 3}},                            // 8-24/seed7 984.55859375
	{0x4090782e00000000, []int{1, 2, 4, 2, 5, 4, 4, 2}, []int{6, 6, 4, 6, 8, 2, 5, 1}},                            // 8-24/seed8 1054.044921875
	{0x40866ca000000000, []int{2, 2, 2, 2, 4, 2, 4, 6}, []int{5, 7, 4, 4, 6, 4, 7, 8}},                            // 8-24/seed9 717.578125
	{0x4082bdd000000000, []int{6, 2, 2, 2, 3, 2, 2, 5}, []int{8, 7, 7, 7, 0, 4, 7, 0}},                            // 8-24/seed10 599.7265625
	{0x4085733aaaaaaaaa, []int{3, 5, 3, 2, 1, 6, 2, 2}, []int{1, 5, 1, 2, 5, 8, 2, 0}},                            // 8-24/seed11 686.40364583333326
	{0x408a9e3aaaaaaaaa, []int{5, 2, 2, 3, 6, 1, 3, 2}, []int{4, 2, 0, 6, 8, 3, 0, 3}},                            // 8-24/seed12 851.77864583333326
	{0x4090225955555555, []int{1, 2, 3, 1, 5, 1, 1, 4, 1, 1}, []int{2, 7, 7, 10, 10, 2, 4, 4, 4, 1}},              // 10-20/seed1 1032.5872395833333
	{0x40918ca000000000, []int{1, 2, 1, 1, 5, 1, 5, 2, 1, 1}, []int{6, 4, 7, 4, 6, 4, 10, 1, 4, 4}},               // 10-20/seed2 1123.15625
	{0x40923906aaaaaaaa, []int{1, 3, 1, 5, 1, 4, 1, 1, 2, 1}, []int{5, 5, 1, 10, 3, 3, 3, 3, 1, 8}},               // 10-20/seed3 1166.2565104166665
	{0x409298e555555556, []int{1, 1, 2, 4, 1, 1, 1, 3, 5, 1}, []int{8, 7, 8, 10, 2, 8, 7, 8, 3, 8}},               // 10-20/seed4 1190.2239583333335
	{0x40960982aaaaaaab, []int{1, 1, 4, 1, 3, 1, 4, 1, 1, 3}, []int{9, 9, 6, 10, 2, 9, 10, 6, 2, 4}},              // 10-20/seed5 1410.3776041666667
	{0x40947ed600000000, []int{1, 1, 2, 1, 1, 2, 4, 3, 1, 4}, []int{10, 6, 7, 5, 2, 7, 10, 9, 6, 6}},              // 10-20/seed6 1311.708984375
	{0x4091a3f555555555, []int{3, 1, 1, 1, 5, 2, 1, 4, 1, 1}, []int{4, 4, 5, 0, 7, 4, 7, 10, 0, 4}},               // 10-20/seed7 1128.9895833333333
	{0x4097e03d55555556, []int{3, 1, 1, 1, 3, 3, 3, 3, 1, 1}, []int{7, 10, 4, 10, 6, 0, 5, 10, 4, 4}},             // 10-20/seed8 1528.0598958333335
	{0x40919d7d55555555, []int{5, 3, 1, 2, 1, 1, 2, 1, 3, 1}, []int{10, 8, 10, 0, 6, 1, 1, 3, 0, 0}},              // 10-20/seed9 1127.3723958333333
	{0x40954b96aaaaaaab, []int{1, 4, 4, 1, 1, 2, 1, 1, 2, 3}, []int{8, 10, 1, 9, 2, 9, 1, 5, 2, 2}},               // 10-20/seed10 1362.8971354166667
	{0x409a21e200000000, []int{1, 1, 1, 2, 3, 3, 2, 4, 1, 2}, []int{9, 6, 7, 6, 7, 10, 4, 5, 3, 4}},               // 10-20/seed11 1672.470703125
	{0x409811ea00000000, []int{4, 1, 1, 1, 2, 1, 3, 2, 1, 4}, []int{10, 6, 9, 6, 7, 4, 9, 6, 6, 0}},               // 10-20/seed12 1540.478515625
	{0x4099c62600000000, []int{3, 1, 3, 4, 5, 1, 1, 4, 5, 1}, []int{3, 2, 0, 7, 10, 2, 0, 8, 4, 2}},               // 10-28/seed21 1649.537109375
	{0x408cb825b6db6db7, []int{7, 5, 1, 3, 1, 4, 1, 2, 1, 3}, []int{10, 0, 3, 1, 0, 1, 9, 5, 1, 5}},               // 10-28/seed22 919.01841517857144
	{0x408f0ecd55555555, []int{1, 3, 1, 2, 2, 5, 2, 6, 3, 3}, []int{9, 5, 5, 1, 1, 7, 8, 10, 9, 5}},               // 10-28/seed23 993.85026041666663
	{0x4088298d55555555, []int{2, 2, 2, 1, 5, 5, 1, 6, 2, 2}, []int{4, 4, 7, 10, 5, 7, 4, 10, 4, 7}},              // 10-28/seed24 773.19401041666663
	{0x408743ed24924924, []int{6, 2, 2, 2, 2, 2, 7, 2, 7, 4}, []int{8, 6, 9, 8, 8, 9, 10, 0, 6, 0}},               // 10-36/seed31 744.49079241071422
	{0x40814b9555555555, []int{5, 5, 2, 2, 2, 2, 4, 6, 6, 2}, []int{7, 8, 10, 6, 1, 1, 0, 10, 10, 10}},            // 10-36/seed34 553.44791666666663
	{0x4086bb7f6db6db6e, []int{7, 6, 2, 2, 8, 3, 2, 2, 2, 2}, []int{4, 0, 1, 4, 10, 1, 1, 4, 0, 5}},               // 10-36/seed35 727.43722098214289
	{0x408cd89b0c30c30c, []int{2, 6, 2, 6, 2, 2, 3, 2, 7, 4}, []int{6, 3, 1, 8, 9, 1, 9, 9, 10, 1}},               // 10-36/seed36 923.07570684523807
	{0x4088f2b155555556, []int{8, 2, 2, 2, 6, 2, 2, 6, 2, 4}, []int{10, 0, 9, 9, 7, 4, 9, 0, 4, 4}},               // 10-36/seed38 798.33658854166674
	{0x4086d438db6db6dc, []int{5, 2, 2, 2, 8, 6, 7, 2, 2}, []int{6, 5, 5, 6, 9, 0, 4, 5, 5}},                      // 9-36/seed101 730.52776227678578
	{0x4084436200000000, []int{2, 8, 2, 2, 4, 4, 4, 8, 2}, []int{1, 7, 5, 6, 1, 1, 5, 9, 4}},                      // 9-36/seed104 648.4228515625
	{0x40838f16db6db6dc, []int{4, 4, 2, 2, 5, 7, 8, 2, 2}, []int{4, 6, 1, 4, 6, 9, 5, 0, 1}},                      // 9-36/seed105 625.88616071428578
	{0x408f6db924924924, []int{2, 6, 1, 1, 2, 2, 5, 3, 2, 7, 5}, []int{6, 9, 6, 6, 1, 6, 10, 1, 7, 11, 1}},        // 11-36/seed41 1005.7154017857142
	{0x408e7e7124924924, []int{5, 2, 2, 2, 5, 2, 2, 4, 3, 7, 2}, []int{9, 9, 7, 1, 0, 8, 0, 4, 7, 11, 4}},         // 11-36/seed43 975.80524553571422
	{0x409153f2aaaaaaaa, []int{1, 2, 2, 2, 4, 2, 6, 6, 5, 5, 1}, []int{4, 9, 5, 8, 8, 4, 11, 6, 9, 7, 11}},        // 11-36/seed44 1108.9869791666665
	{0x408b4f1600000000, []int{5, 2, 2, 2, 8, 2, 2, 2, 2, 6, 3}, []int{9, 10, 9, 0, 11, 0, 0, 0, 0, 4, 4}},        // 11-36/seed46 873.8857421875
	{0x4090646155555555, []int{1, 1, 2, 7, 6, 1, 3, 3, 1, 7, 2, 2}, []int{6, 9, 9, 12, 9, 4, 4, 4, 4, 3, 9, 7}},   // 12-36/seed52 1049.0950520833333
	{0x4093a816f3cf3cf4, []int{3, 2, 3, 2, 2, 3, 2, 1, 7, 2, 5, 4}, []int{11, 8, 0, 5, 2, 8, 5, 4, 12, 8, 8, 10}}, // 12-36/seed59 1258.0224144345239
	{0x409844fab6fe632b, []int{2, 2, 5, 2, 3, 3, 4, 3}, []int{4, 5, 8, 8, 2, 6, 2, 5}},                            // 8-24/seed61/overhead 1553.2448386905696
	{0x4097ca8eb8aa9e94, []int{3, 4, 2, 2, 4, 2, 5, 2}, []int{1, 4, 4, 1, 6, 1, 8, 8}},                            // 8-24/seed62/overhead 1522.6393763217247
	{0x40921619629d102c, []int{2, 3, 3, 5, 4, 3, 2, 2}, []int{8, 4, 8, 8, 3, 3, 3, 1}},                            // 8-24/seed63/overhead 1157.5247902432557
	{0x409449d55cb5fba8, []int{2, 3, 1, 4, 5, 2, 2, 5}, []int{6, 7, 4, 4, 7, 4, 3, 8}},                            // 8-24/seed64/overhead 1298.4583614764069
	{0x409536677c722148, []int{3, 5, 2, 4, 3, 2, 3, 2}, []int{1, 8, 3, 0, 8, 1, 3, 3}},                            // 8-24/seed65/overhead 1357.6010606606305
	{0x409963699db857b2, []int{2, 3, 5, 4, 4, 2, 2, 2}, []int{4, 4, 8, 2, 3, 6, 4, 1}},                            // 8-24/seed66/overhead 1624.8531407168889
	{0x409774e84e41f295, []int{6, 3, 2, 2, 4, 3, 7, 5, 2, 2}, []int{10, 6, 4, 1, 7, 7, 0, 6, 0, 7}},               // 10-36/seed73/overhead 1501.2268610290823
	{0x409a4a1f355c3dba, []int{4, 3, 3, 5, 4, 2, 5, 5, 3, 2}, []int{7, 3, 1, 6, 7, 4, 10, 3, 0, 4}},               // 10-36/seed75/overhead 1682.5304769909549
	{0x408cd9beaaaaaaab, []int{2, 2, 2, 5, 4, 2, 3, 4}, []int{3, 5, 0, 8, 3, 6, 7, 4}},                            // 8-24/seed81/saturating 923.21809895833337
	{0x408ce82800000000, []int{1, 4, 2, 1, 5, 5, 2, 4}, []int{5, 5, 7, 6, 8, 4, 7, 1}},                            // 8-24/seed82/saturating 925.01953125
	{0x4089889800000000, []int{2, 5, 2, 1, 5, 5, 3, 1}, []int{2, 8, 4, 6, 5, 1, 4, 4}},                            // 8-24/seed83/saturating 817.07421875
	{0x407bdfc555555555, []int{2, 5, 2, 2, 3, 5, 2, 3}, []int{8, 5, 5, 4, 1, 8, 5, 8}},                            // 8-24/seed84/saturating 445.98567708333331
	{0x40819a5400000000, []int{3, 2, 5, 2, 2, 2, 4, 4}, []int{8, 8, 8, 6, 0, 6, 7, 2}},                            // 8-24/seed85/saturating 563.291015625
	{0x4081c63d55555556, []int{5, 2, 3, 2, 2, 3, 2, 5}, []int{7, 0, 0, 2, 5, 7, 8, 8}},                            // 8-24/seed86/saturating 568.77994791666674
	{0x4089350aaaaaaaaa, []int{2, 2, 5, 5, 4, 2, 5, 3, 3, 5}, []int{2, 2, 9, 10, 6, 9, 9, 3, 4, 3}},               // 10-36/seed91/saturating 806.63020833333326
	{0x4085657000000000, []int{2, 5, 3, 2, 5, 4, 3, 3, 5, 4}, []int{5, 10, 10, 10, 1, 9, 10, 8, 4, 8}},            // 10-36/seed92/saturating 684.6796875
	{0x408c5d2aaaaaaaaa, []int{2, 2, 5, 5, 2, 4, 3, 5, 3, 5}, []int{7, 3, 10, 7, 5, 3, 9, 9, 9, 2}},               // 10-36/seed94/saturating 907.64583333333326
}
