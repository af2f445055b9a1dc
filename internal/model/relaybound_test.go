package model

import (
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/geom"
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
	rb, err := inc.relay()
	if err != nil {
		t.Fatal(err)
	}
	rx := p.Energy.RxEnergy()
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
			parents, c, err := oracle.BestParents(m)
			if err != nil {
				t.Fatal(err)
			}
			cheapest = min(cheapest, c)
			// The chords stop at ecap: no post of the optimal tree may
			// spend more.
			tree, err := NewTreeFromParents(p, parents)
			if err != nil {
				t.Fatal(err)
			}
			for u, f := range tree.SubtreeLoads(p) {
				tx := p.Energy.TxEnergyAtLevel(tree.Level[u])
				if e := float64(f*tx) + float64((f-p.Rate(u))*rx); !(e <= rb.ecap[u]) {
					t.Fatalf("counts %v: post %d spends %v in its optimal tree, above its cap %v", m, u, e, rb.ecap[u])
				}
			}
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

// TestRelayBoundChordTable checks that the chord table PruneByRelayBound
// reads from is the chords it would price fresh: over random nodes,
// budgets above the problem's nodes and a limit that falls between
// calls, as a branch-and-bound incumbent does, every post's slope, rest
// term and mag term in the slot a call used equal freshChord's bit for
// bit.
func TestRelayBoundChordTable(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cm := charging.Default()
		if seed%2 == 0 {
			cm = charging.Model{EtaSingle: 1, Gain: charging.Saturating(5)}
		}
		n := 4 + rng.Intn(6)
		p := diffProblem(t, seed, n, 3*n, cm)
		if seed%3 == 0 {
			weightProblem(t, p, seed)
		}
		inc, err := NewIncrementalEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewCostEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		even := make([]int, n)
		for i := range even {
			even[i] = 3
		}
		limit, err := oracle.MinCost(even)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, n)
		for call := 0; call < 300; call++ {
			if rng.Intn(10) == 0 {
				limit *= 0.9 + 0.1*rng.Float64()
			}
			for i := range counts {
				counts[i] = 0
			}
			undecided := n
			for _, u := range rng.Perm(n)[:rng.Intn(n-1)] {
				counts[u] = 1 + rng.Intn(p.Nodes)
				undecided--
			}
			capEach := 1 + rng.Intn(p.Nodes)
			budget := undecided + rng.Intn(2*p.Nodes)
			if _, err := inc.PruneByRelayBound(counts, capEach, budget, limit); err != nil {
				t.Fatal(err)
			}
			// budget >= undecided >= 2, so byBudget indexes the slot.
			sl := inc.rb.byBudget[budget][capEach]
			if sl == nil || sl.limit != math.Float64bits(limit) {
				t.Fatalf("call %d: no slot priced at limit %v for (%d, %d)", call, limit, capEach, budget)
			}
			for u, got := range sl.c {
				want := freshChord(inc.rb, u, capEach, budget, limit)
				if got.outright != want.outright ||
					math.Float64bits(got.s) != math.Float64bits(want.s) ||
					math.Float64bits(got.rest) != math.Float64bits(want.rest) ||
					math.Float64bits(got.mag) != math.Float64bits(want.mag) {
					t.Fatalf("seed %d call %d post %d, (capEach %d, budget %d, limit %v): table %+v, fresh %+v",
						seed, call, u, capEach, budget, limit, got, want)
				}
			}
		}
	}
}

// freshChord prices post u's chord from the bound's definition, without
// the table: g_u(E) = min over 1 ≤ x ≤ capEach of (E + O_u)/eff(x) + λx
// on [lo_u, min(hi, ecap_u)], hi = (limit+boundedSlack)·eff(capEach)
// inflated by the margin.
func freshChord(rb *relayScratch, u, capEach, budget int, limit float64) relayChord {
	lam := float64(relayLambdaFrac*limit) / float64(budget)
	if !(lam > 0) {
		lam = 0
	}
	hi := float64(float64((limit+boundedSlack)/rb.inv[capEach]) * (1 + rb.scale))
	lo, top := rb.lo[u], min(hi, rb.ecap[u])
	if !(hi > lo) {
		return relayChord{outright: true}
	}
	g := func(e float64) float64 {
		best := math.Inf(1)
		for x := 1; x <= capEach; x++ {
			best = min(best, float64((e+rb.oh[u])*rb.inv[x])+float64(lam*float64(x)))
		}
		return best
	}
	gl, gh := g(lo), g(top)
	if !(top > lo) {
		return relayChord{rest: gl, mag: gl}
	}
	s := max((gh-gl)/(top-lo), 0)
	return relayChord{s: s, rest: min(gl-float64(s*lo), gh-float64(s*top)), mag: gh + float64(s*top)}
}

// BenchmarkPruneByRelayBound times the relay bound on a warm mix of
// branch-and-bound nodes of a Fig. 7 instance (10 posts, 36 nodes),
// judged against a greedy incumbent's cost: the chord table is filled,
// so a call is the fold and the shortest-path tree.
func BenchmarkPruneByRelayBound(b *testing.B) {
	p, err := GenerateProblem(rand.New(rand.NewSource(1)), GenSpec{Field: geom.Square(200), Posts: 10, Nodes: 36})
	if err != nil {
		b.Fatal(err)
	}
	n := p.N()
	oracle, err := NewCostEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	// The incumbent: every extra node to the post it helps most.
	m := make([]int, n)
	for i := range m {
		m[i] = 1
	}
	limit := math.Inf(1)
	for left := p.Nodes - n; left > 0; left-- {
		best, at := math.Inf(1), 0
		for u := range m {
			m[u]++
			if c, err := oracle.MinCost(m); err != nil {
				b.Fatal(err)
			} else if c < best {
				best, at = c, u
			}
			m[u]--
		}
		m[at]++
		limit = best
	}
	// Nodes as the search meets them: a prefix of posts decided, the
	// rest sharing what is left, at least two of them with a choice.
	type node struct {
		counts          []int
		capEach, budget int
	}
	rng := rand.New(rand.NewSource(2))
	var nodes []node
	for len(nodes) < 64 {
		depth := 1 + rng.Intn(n-2)
		counts := make([]int, n)
		budget := p.Nodes
		for _, u := range rng.Perm(n)[:depth] {
			counts[u] = 1 + rng.Intn(6)
			budget -= counts[u]
		}
		if capEach := budget - (n - depth - 1); capEach > 1 {
			nodes = append(nodes, node{counts, capEach, budget})
		}
	}
	ev, err := NewIncrementalEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	prune := func(nd node) bool {
		doomed, err := ev.PruneByRelayBound(nd.counts, nd.capEach, nd.budget, limit)
		if err != nil {
			b.Fatal(err)
		}
		return doomed
	}
	rejected := 0
	for _, nd := range nodes {
		if prune(nd) {
			rejected++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prune(nodes[i%len(nodes)])
	}
	b.ReportMetric(float64(rejected)/float64(len(nodes)), "rejected/node")
}
