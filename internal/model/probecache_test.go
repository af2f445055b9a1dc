package model

import (
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/geom"
)

// TestProbeCacheDifferential drives IDB-shaped rounds — probe every
// single-add candidate, cache it, commit a winner — and pins every
// cached re-pricing and every promoted commit bit-identical
// (math.Float64bits) to a from-scratch oracle evaluation. The weighted
// variant prices a deployment-wide overhead term, which disables the
// cache; it asserts the gate holds (every lookup misses) while results
// stay exact.
func TestProbeCacheDifferential(t *testing.T) {
	for _, variant := range []string{"plain", "overhead"} {
		for _, seed := range []int64{3, 11, 27} {
			t.Run(variant, func(t *testing.T) {
				const n, nodes = 30, 90
				p := diffProblem(t, seed, n, nodes, charging.Model{EtaSingle: 0.8, Gain: charging.Sublinear(0.9)})
				if variant == "overhead" {
					over := make([]float64, n)
					rng := rand.New(rand.NewSource(seed + 1))
					for i := range over {
						over[i] = 40 * rng.Float64()
					}
					p.RoundOverhead = 25
					p.PostOverheads = over
					if err := p.Validate(); err != nil {
						t.Fatalf("overhead variant invalid: %v", err)
					}
				}
				oracle, err := NewCostEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}
				inc, err := NewIncrementalEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}
				inc.EnableProbeCache(n)

				rng := rand.New(rand.NewSource(seed * 17))
				cur := make([]int, n)
				for i := range cur {
					cur[i] = 1
				}
				if _, err := inc.Cost(cur); err != nil {
					t.Fatal(err)
				}
				probe := make([]int, n)
				for round := 0; round < 25; round++ {
					for i := 0; i < n; i++ {
						copy(probe, cur)
						probe[i]++
						want, err := oracle.MinCost(probe)
						if err != nil {
							t.Fatalf("round %d cand %d: oracle: %v", round, i, err)
						}
						if got, ok := inc.CachedCost(i); ok {
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("round %d cand %d: cached %.17g, oracle %.17g", round, i, got, want)
							}
							continue
						}
						got, err := inc.CostDelta([]Move{{Post: i, Delta: 1}})
						if err != nil {
							t.Fatalf("round %d cand %d: CostDelta: %v", round, i, err)
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("round %d cand %d: probed %.17g, oracle %.17g", round, i, got, want)
						}
						inc.CacheProbe(i)
						if err := inc.Revert(); err != nil {
							t.Fatal(err)
						}
					}
					// Commit a round winner, alternating between the
					// probe-promoting path and the ordinary re-probe path so
					// both invalidation routines run.
					w := rng.Intn(n)
					copy(probe, cur)
					probe[w]++
					want, err := oracle.MinCost(probe)
					if err != nil {
						t.Fatal(err)
					}
					promoted := false
					if round%2 == 0 {
						if got, ok := inc.CommitCached(w); ok {
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("round %d: promoted commit %.17g, oracle %.17g", round, got, want)
							}
							promoted = true
						}
					}
					if !promoted {
						got, err := inc.CostDelta([]Move{{Post: w, Delta: 1}})
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("round %d: fresh commit %.17g, oracle %.17g", round, got, want)
						}
						if err := inc.Commit(); err != nil {
							t.Fatal(err)
						}
					}
					cur[w]++
					// Audit the committed state.
					audit, err := inc.CostDelta(nil)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(audit) != math.Float64bits(want) {
						t.Fatalf("round %d: committed state %.17g, oracle %.17g", round, audit, want)
					}
					if err := inc.Revert(); err != nil {
						t.Fatal(err)
					}
				}
				st := inc.Stats()
				if variant == "overhead" {
					if st.CacheHits != 0 || st.CachePromotes != 0 {
						t.Fatalf("overhead pricing must disable the cache, got %+v", st)
					}
				} else {
					if st.CacheHits == 0 {
						t.Errorf("cache enabled but never hit: %+v", st)
					}
					if st.CachePromotes == 0 {
						t.Errorf("no probe-promoting commit ran: %+v", st)
					}
				}
			})
		}
	}
}

// TestCostDeltaBoundedDifferential pins CostDeltaBounded against exact
// probing: an infinite limit is bit-identical to CostDelta, a pruned
// return guarantees the exact cost is at or above the limit (and leaves
// the evaluator idle), and an unpruned return is bit-identical to the
// exact cost. Both the tiny scan-min regime (which prunes) and the
// journaled-repair regime (which never does) are covered.
func TestCostDeltaBoundedDifferential(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, nodes int
	}{
		{"tiny", 12, 36},
		{"large", 30, 90},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := diffProblem(t, 5, tc.n, tc.nodes, charging.Model{EtaSingle: 0.8, Gain: charging.Sublinear(0.9)})
			bounded, err := NewIncrementalEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := NewIncrementalEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			cur := make([]int, tc.n)
			for i := range cur {
				cur[i] = 1 + rng.Intn(3)
			}
			if _, err := bounded.Cost(cur); err != nil {
				t.Fatal(err)
			}
			if _, err := exact.Cost(cur); err != nil {
				t.Fatal(err)
			}
			inf := math.Inf(1)
			pruned := 0
			for step := 0; step < 300; step++ {
				mv := []Move{{Post: rng.Intn(tc.n), Delta: 1}}
				if rng.Intn(2) == 0 && cur[mv[0].Post] > 1 {
					mv[0].Delta = -1
				}
				want, err := exact.CostDelta(mv)
				if err != nil {
					t.Fatal(err)
				}
				if err := exact.Revert(); err != nil {
					t.Fatal(err)
				}
				limit := inf
				switch step % 3 {
				case 1:
					limit = want * (0.9 + 0.2*rng.Float64())
				case 2:
					limit = want
				}
				got, wasPruned, err := bounded.CostDeltaBounded(mv, limit)
				if err != nil {
					t.Fatal(err)
				}
				if wasPruned {
					pruned++
					if want < limit {
						t.Fatalf("step %d: pruned at limit %.17g but exact cost %.17g is below it", step, limit, want)
					}
					// The evaluator must be idle: a fresh probe needs no Revert.
					continue
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: bounded %.17g, exact %.17g (limit %.17g)", step, got, want, limit)
				}
				if err := bounded.Revert(); err != nil {
					t.Fatal(err)
				}
			}
			if tc.n+1 <= tinyVerts && pruned == 0 {
				t.Error("tiny regime never pruned a bounded probe")
			}
			if tc.n+1 > tinyVerts && pruned != 0 {
				t.Errorf("journaled regime pruned %d probes (must price exactly)", pruned)
			}
		})
	}
}

// FuzzProbeCacheInvalidation fuzzes the probe-promotion invalidation
// contract: cache a candidate's probe, commit fuzzer-chosen *different*
// moves, and require that the slot either misses or re-prices
// bit-identically to a from-scratch evaluation. Committing a move on
// the cached candidate's own post must always invalidate it (the cached
// probe priced a different count transition).
func FuzzProbeCacheInvalidation(f *testing.F) {
	f.Add(int64(1), []byte{0x03, 0x11, 0x22})
	f.Add(int64(4), []byte{0xff, 0x00, 0x81, 0x10})
	f.Add(int64(8), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		const n, nodes = 18, 54
		p := diffProblem(t, 2, n, nodes, charging.Model{EtaSingle: 0.8, Gain: charging.Sublinear(0.9)})
		oracle, err := NewCostEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncrementalEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		inc.EnableProbeCache(n)
		rng := rand.New(rand.NewSource(seed))
		cur := make([]int, n)
		for i := range cur {
			cur[i] = 1 + rng.Intn(3)
		}
		if _, err := inc.Cost(cur); err != nil {
			t.Fatal(err)
		}
		probe := make([]int, n)
		cached := -1 // candidate whose +1 probe the cache holds, if any
		for i := 0; i+1 < len(ops); i += 2 {
			cand, arg := int(ops[i])%n, ops[i+1]
			switch arg % 3 {
			case 0: // probe cand and cache it
				if _, err := inc.CostDelta([]Move{{Post: cand, Delta: 1}}); err != nil {
					t.Fatal(err)
				}
				inc.CacheProbe(cand)
				if err := inc.Revert(); err != nil {
					t.Fatal(err)
				}
				cached = cand
			case 1: // commit different moves (possibly touching cand's post)
				mv := Move{Post: int(arg) % n, Delta: 1}
				if arg&0x40 != 0 && cur[mv.Post] > 1 {
					mv.Delta = -1
				}
				if _, err := inc.CostDelta([]Move{mv}); err != nil {
					t.Fatal(err)
				}
				if err := inc.Commit(); err != nil {
					t.Fatal(err)
				}
				cur[mv.Post] += mv.Delta
				if cached == mv.Post {
					if _, ok := inc.CachedCost(cached); ok {
						t.Fatalf("slot %d survived a commit moving its own post", cached)
					}
					cached = -1
				}
			case 2: // promote the cached candidate when still held
				if cached < 0 {
					continue
				}
				copy(probe, cur)
				probe[cached]++
				want, err := oracle.MinCost(probe)
				if err != nil {
					t.Fatal(err)
				}
				if got, ok := inc.CommitCached(cached); ok {
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("promoted commit %.17g, oracle %.17g", got, want)
					}
					copy(cur, probe)
				}
				cached = -1
			}
			// Every cached lookup that answers must match the oracle.
			if cached >= 0 {
				copy(probe, cur)
				probe[cached]++
				if got, ok := inc.CachedCost(cached); ok {
					want, err := oracle.MinCost(probe)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("cached %.17g, oracle %.17g (cand %d, cur %v)", got, want, cached, cur)
					}
				}
			}
			// And the committed state itself must stay exact.
			got, err := inc.CostDelta(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := inc.Revert(); err != nil {
				t.Fatal(err)
			}
			want, err := oracle.MinCost(cur)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("committed cost %.17g, oracle %.17g (cur %v)", got, want, cur)
			}
		}
	})
}

// clusteredProblem is diffProblem with posts drawn from Gaussian blobs,
// the layout whose dense cores give repairs their largest patches.
func clusteredProblem(t testing.TB, seed int64, n, nodes int, cm charging.Model) *Problem {
	t.Helper()
	side := 50 * math.Sqrt(float64(n))
	p, err := GenerateProblem(rand.New(rand.NewSource(seed)), GenSpec{
		Field:    geom.Field{Width: side, Height: side},
		Posts:    n,
		Nodes:    nodes,
		Layout:   LayoutClustered,
		Charging: cm,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return p
}

// boundedCandidates lists a round's probe shapes for the bounded-pricing
// suites: every single add, every legal removal, and a seeded sample of
// two-post transfers, each under a stable slot id (add i at i, removal i
// at n+i, transfer from→to at 2n+from*n+to).
func boundedCandidates(rng *rand.Rand, cur []int) (ids []int, moves [][]Move) {
	n := len(cur)
	for i := 0; i < n; i++ {
		ids = append(ids, i)
		moves = append(moves, []Move{{Post: i, Delta: 1}})
		if cur[i] > 1 {
			ids = append(ids, n+i)
			moves = append(moves, []Move{{Post: i, Delta: -1}})
		}
	}
	for k := 0; k < n; k++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to || cur[from] < 2 {
			continue
		}
		ids = append(ids, 2*n+from*n+to)
		moves = append(moves, []Move{{Post: from, Delta: -1}, {Post: to, Delta: 1}})
	}
	return ids, moves
}

// TestBoundedProbeCacheDifferential pins the bounded probe-cache calls
// against exact probing over the tiny scan-min regime and the journaled
// regime on uniform and clustered layouts. Limits sweep exact·(0.9..1.1),
// exact itself and the next float above it. A pruned answer — fresh or
// cached — requires the ReferenceEvaluator's cost to be at or above the
// limit, and a pruned fresh probe must leave the evaluator idle (the
// next probe runs with no Revert) with its repair still cached; an
// unpruned answer must be bit-identical to CostDelta. Cached re-prices
// are checked the same way across rounds of intervening commits, and
// every regime must prune at least once.
func TestBoundedProbeCacheDifferential(t *testing.T) {
	cm := charging.Model{EtaSingle: 0.8, Gain: charging.Sublinear(0.9)}
	for _, tc := range []struct {
		name     string
		n, nodes int
		gen      func(testing.TB, int64, int, int, charging.Model) *Problem
	}{
		{"tiny", 12, 36, diffProblem},
		{"journaled-uniform", 30, 90, diffProblem},
		{"journaled-clustered", 60, 180, clusteredProblem},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.gen(t, 13, tc.n, tc.nodes, cm)
			n := tc.n
			bounded, err := NewIncrementalEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			bounded.EnableProbeCache(2*n + n*n)
			exact, err := NewIncrementalEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewReferenceEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(21))
			cur := make([]int, n)
			for i := range cur {
				cur[i] = 1 + rng.Intn(3)
			}
			for _, ev := range []Evaluator{bounded, exact, ref} {
				if _, err := ev.Cost(cur); err != nil {
					t.Fatal(err)
				}
			}
			price := func(ev Evaluator, mv []Move) float64 {
				t.Helper()
				c, err := ev.CostDelta(mv)
				if err != nil {
					t.Fatal(err)
				}
				if err := ev.Revert(); err != nil {
					t.Fatal(err)
				}
				return c
			}
			var freshPrunes, cachedPrunes int
			step := 0
			for round := 0; round < 12; round++ {
				ids, moves := boundedCandidates(rng, cur)
				for k, id := range ids {
					mv := moves[k]
					want := price(exact, mv)
					limit := math.Inf(1)
					switch step % 4 {
					case 1:
						limit = want * (0.9 + 0.2*rng.Float64())
					case 2:
						limit = want
					case 3:
						limit = math.Nextafter(want, math.Inf(1))
					}
					step++
					check := func(kind string, got float64, pruned bool) {
						t.Helper()
						if pruned {
							if oracle := price(ref, mv); oracle < limit {
								t.Fatalf("round %d %s %v: pruned at limit %.17g but oracle cost %.17g is below it", round, kind, mv, limit, oracle)
							}
							return
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("round %d %s %v: %.17g, CostDelta %.17g (limit %.17g)", round, kind, mv, got, want, limit)
						}
					}
					if got, pruned, ok := bounded.CachedCostBounded(id, limit); ok {
						check("cached", got, pruned)
						if pruned {
							cachedPrunes++
						}
						continue
					}
					got, pruned, err := bounded.CostDeltaCached(id, mv, limit)
					if err != nil {
						t.Fatal(err)
					}
					check("fresh", got, pruned)
					if !pruned {
						if err := bounded.Revert(); err != nil {
							t.Fatal(err)
						}
						continue
					}
					freshPrunes++
					if n+1 > tinyVerts {
						// The pruned probe's repair stays cached: the next
						// round re-prices it instead of re-repairing.
						got, again, ok := bounded.CachedCostBounded(id, math.Inf(1))
						if !ok || again {
							t.Fatalf("round %d %v: pruned probe left no cached slot (ok=%v pruned=%v)", round, mv, ok, again)
						}
						check("cached-after-prune", got, false)
					}
				}
				// Commit a random candidate, alternating between promotion
				// and an ordinary probe so both invalidation paths run.
				k := rng.Intn(len(ids))
				mv := moves[k]
				promoted := false
				if round%2 == 0 {
					_, promoted = bounded.CommitCached(ids[k])
				}
				evs := []Evaluator{exact, ref}
				if !promoted {
					evs = append(evs, bounded)
				}
				for _, ev := range evs {
					if _, err := ev.CostDelta(mv); err != nil {
						t.Fatal(err)
					}
					if err := ev.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				for _, m := range mv {
					cur[m.Post] += m.Delta
				}
			}
			st := bounded.Stats()
			t.Logf("%d fresh and %d cached prunes; %+v", freshPrunes, cachedPrunes, st)
			if freshPrunes+cachedPrunes == 0 {
				t.Fatalf("%s regime never pruned: %+v", tc.name, st)
			}
			if n+1 > tinyVerts {
				if freshPrunes == 0 || cachedPrunes == 0 {
					t.Errorf("journaled regime: %d fresh and %d cached prunes, want both > 0", freshPrunes, cachedPrunes)
				}
				if st.PricePrunes != int64(freshPrunes+cachedPrunes) {
					t.Errorf("PricePrunes = %d, want %d", st.PricePrunes, freshPrunes+cachedPrunes)
				}
			} else if st.PricePrunes != 0 || st.BoundedPrunes != int64(freshPrunes) {
				t.Errorf("tiny regime: PricePrunes %d, BoundedPrunes %d, want 0 and %d", st.PricePrunes, st.BoundedPrunes, freshPrunes)
			}
		})
	}
}

// FuzzBoundedProbeCache fuzzes the bounded probe-cache calls: fresh
// bounded probes, cached re-prices and promotions of fuzzer-chosen
// candidates, interleaved with committed moves, under limits drawn from
// +Inf, the exact cost, the next float above it and exact·scale. Every
// pruned answer must be at or above the limit by the oracle, every
// unpruned one bit-identical to CostDelta, and the committed state must
// stay exact.
func FuzzBoundedProbeCache(f *testing.F) {
	f.Add(int64(1), 0.95, []byte{0x03, 0x11, 0x22, 0x41, 0x07, 0x92})
	f.Add(int64(4), 0.999, []byte{0xff, 0x00, 0x81, 0x10, 0x33, 0x21})
	f.Add(int64(9), 1.2, []byte{0x10, 0x04, 0x10, 0x06, 0x21, 0x05})
	// Limits just above the exact cost: fresh and cached probes of an
	// add, a removal and a transfer, then a commit and re-prices.
	f.Add(int64(3), 1.0001, []byte{0x03, 0x08, 0x03, 0x09, 0x85, 0x0c, 0x85, 0x0d, 0x47, 0x08, 0x47, 0x09, 0x03, 0x02, 0x47, 0x0d, 0x85, 0x09})
	f.Fuzz(func(t *testing.T, seed int64, scale float64, ops []byte) {
		const n, nodes = 18, 54
		p := diffProblem(t, 2, n, nodes, charging.Model{EtaSingle: 0.8, Gain: charging.Sublinear(0.9)})
		oracle, err := NewCostEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncrementalEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		inc.EnableProbeCache(2*n + n*n)
		exact, err := NewIncrementalEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		cur := make([]int, n)
		for i := range cur {
			cur[i] = 1 + rng.Intn(3)
		}
		if _, err := inc.Cost(cur); err != nil {
			t.Fatal(err)
		}
		if _, err := exact.Cost(cur); err != nil {
			t.Fatal(err)
		}
		probe := make([]int, n)
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := int(ops[i]), int(ops[i+1])
			// Candidate: add, removal or transfer, by a's low bits.
			from, to := a%n, (a/n+b)%n
			var mv []Move
			var id int
			switch {
			case a&0x40 != 0 && from != to && cur[from] > 1:
				mv, id = []Move{{Post: from, Delta: -1}, {Post: to, Delta: 1}}, 2*n+from*n+to
			case a&0x80 != 0 && cur[from] > 1:
				mv, id = []Move{{Post: from, Delta: -1}}, n+from
			default:
				mv, id = []Move{{Post: from, Delta: 1}}, from
			}
			want, err := exact.CostDelta(mv)
			if err != nil {
				t.Fatal(err)
			}
			if err := exact.Revert(); err != nil {
				t.Fatal(err)
			}
			limit := math.Inf(1)
			switch (b >> 2) % 4 {
			case 1:
				limit = want
			case 2:
				limit = math.Nextafter(want, math.Inf(1))
			case 3:
				limit = want * scale
			}
			check := func(got float64, pruned bool) {
				t.Helper()
				if pruned {
					copy(probe, cur)
					for _, m := range mv {
						probe[m.Post] += m.Delta
					}
					c, err := oracle.MinCost(probe)
					if err != nil {
						t.Fatal(err)
					}
					if c < limit {
						t.Fatalf("pruned %v at limit %.17g, oracle %.17g", mv, limit, c)
					}
					return
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v: %.17g, CostDelta %.17g (limit %.17g)", mv, got, want, limit)
				}
			}
			switch b % 4 {
			case 0: // fresh bounded probe
				got, pruned, err := inc.CostDeltaCached(id, mv, limit)
				if err != nil {
					t.Fatal(err)
				}
				check(got, pruned)
				if !pruned {
					if err := inc.Revert(); err != nil {
						t.Fatal(err)
					}
				}
			case 1: // cached re-price
				if got, pruned, ok := inc.CachedCostBounded(id, limit); ok {
					check(got, pruned)
				}
			case 2: // commit the candidate, promoted when cached
				if got, ok := inc.CommitCached(id); ok {
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("promoted %v: %.17g, CostDelta %.17g", mv, got, want)
					}
				} else {
					if _, err := inc.CostDelta(mv); err != nil {
						t.Fatal(err)
					}
					if err := inc.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := exact.CostDelta(mv); err != nil {
					t.Fatal(err)
				}
				if err := exact.Commit(); err != nil {
					t.Fatal(err)
				}
				for _, m := range mv {
					cur[m.Post] += m.Delta
				}
			case 3: // fresh bounded probe, committed when it survives
				got, pruned, err := inc.CostDeltaCached(id, mv, limit)
				if err != nil {
					t.Fatal(err)
				}
				check(got, pruned)
				if pruned {
					continue
				}
				if err := inc.Commit(); err != nil {
					t.Fatal(err)
				}
				if _, err := exact.CostDelta(mv); err != nil {
					t.Fatal(err)
				}
				if err := exact.Commit(); err != nil {
					t.Fatal(err)
				}
				for _, m := range mv {
					cur[m.Post] += m.Delta
				}
			}
			got, err := inc.CostDelta(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := inc.Revert(); err != nil {
				t.Fatal(err)
			}
			want, err = oracle.MinCost(cur)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("committed cost %.17g, oracle %.17g (cur %v)", got, want, cur)
			}
		}
	})
}
