package model

import (
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
)

// TestRelayBoundSound is the promise branch and bound relies on: when
// PruneByRelayBound rejects a node, no completion of it has an evaluated
// cost below limit+boundedSlack. On random instances of up to 7 posts it
// draws random branch-and-bound nodes, enumerates every completion with
// the oracle evaluator, and asks the bound at many limits: fixed
// fractions of the cheapest completion, limits a few ulps around
// cheapest−boundedSlack, and a bisection onto the largest limit the
// bound still rejects, where the margin is tightest. It covers the
// paper's defaults, heterogeneous rates with per-post overheads, and a
// saturating gain.
func TestRelayBoundSound(t *testing.T) {
	variants := []struct {
		name     string
		cm       charging.Model
		overhead bool
	}{
		{"paper", charging.Default(), false},
		{"overhead", charging.Default(), true},
		{"saturating", charging.Model{EtaSingle: 1, Gain: charging.Saturating(5)}, false},
	}
	for vi, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			var prunes, asked int
			tightest := 0.0
			for k := 0; k < 30; k++ {
				seed := int64(1000*vi + k)
				rng := rand.New(rand.NewSource(seed))
				n := 3 + rng.Intn(5)
				p := diffProblem(t, seed, n, 3*n, v.cm)
				if v.overhead {
					weightProblem(t, p, seed)
				}
				pr, ak, tight := checkRelayBound(t, p, rng)
				prunes += pr
				asked += ak
				tightest = max(tightest, tight)
			}
			if prunes == 0 {
				t.Fatalf("the bound rejected none of %d nodes; the test proves nothing", asked)
			}
			t.Logf("%d of %d asks rejected; tightest rejected limit+slack at %.9f of the cheapest completion",
				prunes, asked, tightest)
		})
	}
}

// checkRelayBound draws branch-and-bound nodes of p and checks every
// rejection against the node's cheapest completion. It returns the
// rejections, the asks, and the largest (limit+boundedSlack)/cheapest
// ratio among rejections.
func checkRelayBound(t *testing.T, p *Problem, rng *rand.Rand) (prunes, asked int, tightest float64) {
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
	counts := make([]int, n)
	m := make([]int, n)
	for trial := 0; trial < 8; trial++ {
		order := rng.Perm(n)
		depth := 1 + rng.Intn(n-2)
		undecided := order[depth:]
		for i := range counts {
			counts[i] = 0
		}
		for _, u := range order[:depth] {
			counts[u] = 1 + rng.Intn(5)
		}
		budget := len(undecided) + 1 + rng.Intn(8)
		capEach := budget - (len(undecided) - 1)

		cheapest := math.Inf(1)
		copy(m, counts)
		forEachSplit(budget, len(undecided), func(parts []int) {
			for i, u := range undecided {
				m[u] = parts[i]
			}
			c, err := oracle.MinCost(m)
			if err != nil {
				t.Fatal(err)
			}
			cheapest = min(cheapest, c)
		})

		ask := func(limit float64) bool {
			asked++
			doomed, err := inc.PruneByRelayBound(counts, capEach, budget, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !doomed {
				return false
			}
			prunes++
			if !(cheapest >= limit+boundedSlack) {
				t.Fatalf("counts %v, undecided %v, budget %d: rejected at limit %v, but a completion costs %v",
					counts, undecided, budget, limit, cheapest)
			}
			tightest = max(tightest, (limit+boundedSlack)/cheapest)
			return true
		}
		for _, f := range []float64{0, 0.25, 0.5, 0.8, 0.9, 0.95, 0.99, 1, 1.01} {
			ask(f * cheapest)
		}
		edge := cheapest - boundedSlack
		ask(math.Nextafter(edge, 0))
		ask(edge)
		ask(math.Nextafter(edge, math.Inf(1)))
		// Bisect onto the boundary between rejected and kept limits.
		lo, hi := 0.0, cheapest
		if ask(lo) {
			for i := 0; i < 60 && lo < hi; i++ {
				mid := lo + (hi-lo)/2
				if ask(mid) {
					lo = mid
				} else {
					hi = mid
				}
			}
		}
		for _, limit := range []float64{math.Inf(1), math.NaN()} {
			if ask(limit) {
				t.Fatalf("rejected at limit %v", limit)
			}
		}
	}
	if got := inc.Stats().RelayPrunes; got != int64(prunes) {
		t.Errorf("RelayPrunes = %d, want %d", got, prunes)
	}
	return prunes, asked, tightest
}

// forEachSplit calls fn with every split of total into k parts of at
// least 1, in lexicographic order.
func forEachSplit(total, k int, fn func(parts []int)) {
	parts := make([]int, k)
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == k-1 {
			parts[i] = left
			fn(parts)
			return
		}
		for x := 1; x <= left-(k-1-i); x++ {
			parts[i] = x
			rec(i+1, left-x)
		}
	}
	rec(0, total)
}

// TestRelayBoundLeavesProbeAndRejectsBadInput checks that the bound
// neither disturbs a pending probe nor accepts a malformed node.
func TestRelayBoundLeavesProbeAndRejectsBadInput(t *testing.T) {
	p := diffProblem(t, 7, 6, 18, charging.Default())
	inc, err := NewIncrementalEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	base := []int{3, 3, 3, 3, 3, 3}
	if _, err := inc.Cost(base); err != nil {
		t.Fatal(err)
	}
	want, err := inc.CostDelta([]Move{{Post: 2, Delta: 1}})
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{3, 0, 2, 0, 0, 4}
	if _, err := inc.PruneByRelayBound(counts, 7, 9, want/2); err != nil {
		t.Fatal(err)
	}
	if err := inc.Commit(); err != nil {
		t.Fatalf("pending probe lost: %v", err)
	}
	oracle, err := NewCostEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := oracle.MinCost([]int{3, 3, 4, 3, 3, 3}); err != nil || got != want {
		t.Fatalf("committed probe priced %v, oracle %v (%v)", want, got, err)
	}

	bad := []struct {
		name    string
		counts  []int
		capEach int
		budget  int
	}{
		{"short counts", []int{3, 0, 2}, 2, 2},
		{"negative count", []int{3, 0, -2, 0, 0, 4}, 7, 9},
		{"zero cap", counts, 0, 9},
		{"budget below posts", counts, 1, 2},
		{"no undecided post", []int{3, 1, 2, 1, 1, 4}, 1, 1},
	}
	for _, b := range bad {
		if _, err := inc.PruneByRelayBound(b.counts, b.capEach, b.budget, 1e9); err == nil {
			t.Errorf("%s: no error", b.name)
		}
	}
}
