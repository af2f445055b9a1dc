package model

import (
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
)

// TestTreeBoundSound replays IDB(δ=1) over uniform and clustered
// instances of 17 to 120 posts, under the paper's, a linear and a
// saturating gain and with and without per-post report rates. At every
// round it asks PruneUnitAdd about every unit add, at limits just below
// and just above the candidate's exact cost and at the round's best
// cost, and requires every rejection to be a candidate whose
// ReferenceEvaluator cost is at least limit+boundedSlack. It then
// commits the round's winner, so the committed trees are IDB's.
func TestTreeBoundSound(t *testing.T) {
	gains := []charging.Model{
		charging.Default(),
		{EtaSingle: 1, Gain: charging.Linear()},
		{EtaSingle: 1, Gain: charging.Saturating(3)},
	}
	var asked, rejected int
	for k, n := range []int{17, 24, 40, 64, 90, 120} {
		seed := int64(11 + k)
		cm := gains[k%len(gains)]
		nodes := 3 * n
		if n > 60 {
			nodes = 2 * n
		}
		var p *Problem
		if k%2 == 0 {
			p = diffProblem(t, seed, n, nodes, cm)
		} else {
			p = clusteredProblem(t, seed, n, nodes, cm)
		}
		if k%3 == 1 {
			rng := rand.New(rand.NewSource(seed))
			p.ReportRates = make([]float64, n)
			for i := range p.ReportRates {
				p.ReportRates[i] = 0.25 + 2*rng.Float64()
			}
		}
		a, r := checkTreeBound(t, p)
		asked += a
		rejected += r
	}
	if rejected == 0 {
		t.Fatalf("PruneUnitAdd rejected none of %d questions", asked)
	}
	t.Logf("%d of %d questions rejected", rejected, asked)
}

// checkTreeBound is TestTreeBoundSound on one problem; it returns how
// many questions it asked and how many PruneUnitAdd rejected.
func checkTreeBound(t *testing.T, p *Problem) (asked, rejected int) {
	t.Helper()
	n := p.N()
	inc, err := NewIncrementalEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReferenceEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	m := make([]int, n)
	for i := range m {
		m[i] = 1
	}
	if _, err := inc.Cost(m); err != nil {
		t.Fatal(err)
	}
	exact := make([]float64, n)
	mv := make([]Move, 1)
	for round := n; round < p.Nodes; round++ {
		if _, err := ref.Cost(m); err != nil {
			t.Fatal(err)
		}
		best, bestI := math.Inf(1), -1
		for i := n - 1; i >= 0; i-- {
			mv[0] = Move{Post: i, Delta: 1}
			c, err := ref.CostDelta(mv)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Revert(); err != nil {
				t.Fatal(err)
			}
			exact[i] = c
			if c < best {
				best, bestI = c, i
			}
		}
		for i, x := range exact {
			edge := x - boundedSlack // the largest limit a rejection may use
			for _, limit := range []float64{
				best, edge - 1e-9*x, edge - 1e-12*x, edge, math.Nextafter(edge, inf), x, x + 1,
			} {
				asked++
				if !inc.PruneUnitAdd(i, limit) {
					continue
				}
				rejected++
				if !(x >= limit+boundedSlack) {
					t.Fatalf("%d posts, round %d, post %d: rejected at limit %.17g, but the unit add costs %.17g",
						n, round, i, limit, x)
				}
			}
		}
		// The evaluator is untouched: the winner's probe prices as the
		// oracle does, and committing it moves to IDB's next tree.
		mv[0] = Move{Post: bestI, Delta: 1}
		got, err := inc.CostDelta(mv)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(best) {
			t.Fatalf("%d posts, round %d: winner priced %.17g after the bound's questions, oracle %.17g", n, round, got, best)
		}
		if err := inc.Commit(); err != nil {
			t.Fatal(err)
		}
		m[bestI]++
	}
	return asked, rejected
}

// TestPruneUnitAddDeclines checks the cases PruneUnitAdd must answer
// false without judging: an infinite limit, a pending probe, a post out
// of range, the scan-min regime, an overhead term, and a unit add that
// does not raise the post's efficiency.
func TestPruneUnitAddDeclines(t *testing.T) {
	commit := func(p *Problem, count int) *IncrementalEvaluator {
		t.Helper()
		inc, err := NewIncrementalEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		m := make([]int, p.N())
		for i := range m {
			m[i] = count
		}
		if _, err := inc.Cost(m); err != nil {
			t.Fatal(err)
		}
		return inc
	}
	p := diffProblem(t, 3, 30, 90, charging.Default())
	inc := commit(p, 2)
	if !inc.PruneUnitAdd(0, 0) {
		t.Fatal("a limit of 0 was not rejected")
	}
	for _, post := range []int{-1, p.N()} {
		if inc.PruneUnitAdd(post, 0) {
			t.Fatalf("post %d out of range was judged", post)
		}
	}
	if inc.PruneUnitAdd(0, math.Inf(1)) {
		t.Fatal("an infinite limit was rejected")
	}
	if _, err := inc.CostDelta([]Move{{Post: 1, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	if inc.PruneUnitAdd(0, 0) {
		t.Fatal("judged over a pending probe")
	}
	if err := inc.Revert(); err != nil {
		t.Fatalf("the pending probe was lost: %v", err)
	}

	if commit(diffProblem(t, 3, 12, 36, charging.Default()), 2).PruneUnitAdd(0, 0) {
		t.Fatal("judged in the scan-min regime")
	}
	oh := diffProblem(t, 3, 30, 90, charging.Default())
	oh.RoundOverhead = 50
	if commit(oh, 2).PruneUnitAdd(0, 0) {
		t.Fatal("judged with an overhead term")
	}
	sat := diffProblem(t, 3, 30, 90, charging.Model{EtaSingle: 1, Gain: charging.Saturating(3)})
	if commit(sat, 3).PruneUnitAdd(0, 0) {
		t.Fatal("judged a unit add past the gain's cap")
	}
	if got := inc.Stats().TreePrunes; got != 1 {
		t.Fatalf("TreePrunes = %d, want 1", got)
	}
}

// BenchmarkPruneUnitAdd times the subtree bound on a warm 300-post
// tree, asking about every post at three limits: the best unit add's
// cost, as an IDB round asks once it has an incumbent (most reject at
// stage 1); just below the candidate's own cost (stage 2 decides); and
// above it (both stages run and pass).
func BenchmarkPruneUnitAdd(b *testing.B) {
	p := diffProblem(b, 1, 300, 600, charging.Default())
	ev, err := NewIncrementalEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	n := p.N()
	m := make([]int, n)
	for i := range m {
		m[i] = 1 + i%3
	}
	if _, err := ev.Cost(m); err != nil {
		b.Fatal(err)
	}
	exact := make([]float64, n)
	best := math.Inf(1)
	mv := make([]Move, 1)
	for i := range exact {
		mv[0] = Move{Post: i, Delta: 1}
		c, err := ev.CostDelta(mv)
		if err != nil {
			b.Fatal(err)
		}
		if err := ev.Revert(); err != nil {
			b.Fatal(err)
		}
		exact[i] = c
		best = min(best, c)
	}
	limits := make([]float64, 0, 3*n)
	for _, x := range exact {
		limits = append(limits, best, float64(x*(1-1e-6)), x+1)
	}
	rejected := 0
	for k, limit := range limits {
		if ev.PruneUnitAdd(k/3, limit) {
			rejected++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(limits)
		ev.PruneUnitAdd(k/3, limits[k])
	}
	b.StopTimer()
	b.ReportMetric(float64(rejected)/float64(len(limits)), "rejected/ask")
}
