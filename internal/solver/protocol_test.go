package solver

import (
	"math"
	"testing"

	"wrsn/internal/model"
)

// protocolCandidates returns unit moves valid from base: single-unit
// transfers for a fixed-total instance, single-unit adds and removals
// otherwise. At most max candidates are returned.
func protocolCandidates(inst model.Instance, base []int, max int) [][]model.Move {
	var out [][]model.Move
	n := inst.Dims()
	if _, fixed := inst.FixedTotal(); fixed {
		for from := 0; from < n && len(out) < max; from++ {
			if base[from]-1 < inst.LowerBound(from) {
				continue
			}
			for to := 0; to < n && len(out) < max; to++ {
				if to != from && base[to]+1 <= inst.UpperBound(to) {
					out = append(out, []model.Move{{Post: from, Delta: -1}, {Post: to, Delta: 1}})
				}
			}
		}
		return out
	}
	for i := 0; i < n && len(out) < max; i++ {
		if base[i]+1 <= inst.UpperBound(i) {
			out = append(out, []model.Move{{Post: i, Delta: 1}})
		}
		if base[i]-1 >= inst.LowerBound(i) && len(out) < max {
			out = append(out, []model.Move{{Post: i, Delta: -1}})
		}
	}
	return out
}

// protocolBase is a valid, non-trivial starting vector: the lower
// bounds, plus a round-robin spread of the remaining total for a
// fixed-total instance or one unit on every third dimension otherwise.
func protocolBase(inst model.Instance) []int {
	base := model.LowerBoundVector(inst)
	if total, fixed := inst.FixedTotal(); fixed {
		rest := total
		for _, b := range base {
			rest -= b
		}
		for k := 0; k < rest; k++ {
			base[k%len(base)]++
		}
		return base
	}
	for i := 0; i < len(base); i += 3 {
		base[i]++
	}
	return base
}

// TestEvaluatorProtocol runs one script over all four evaluators —
// deployment and placement, incremental and reference — and checks the
// slot calls' contract:
//
//   - a pruned=true answer leaves the evaluator idle: the next probe
//     succeeds with no Commit or Revert;
//   - an unpruned answer leaves it pending: a second probe errors;
//   - every unpruned cost, fresh or cached, has the Float64bits of a
//     plain CostDelta, and a limit above that cost never prunes;
//   - a +Inf limit never prunes;
//   - a successful CommitCached leaves the same committed state as
//     CostDelta+Commit on a twin evaluator; a failed one leaves the
//     evaluator untouched;
//   - PruneUnitAdd rejects only a unit add whose plain CostDelta is at
//     or above the limit, never at a +Inf limit or a limit above that
//     cost, never over a pending probe, and leaves the evaluator's
//     prices unchanged.
//
// The production evaluators must actually hit and promote (the
// deployment one outside its scan-min regime, which keeps no slots),
// and the deployment one must prune, and outside the scan-min regime
// reject unit adds; the reference evaluators must never cache, prune or
// reject, and placement never rejects.
func TestEvaluatorProtocol(t *testing.T) {
	cases := []struct {
		name    string
		inst    model.Instance
		ref     bool
		caches  bool // lookups after a cached probe must hit, promotions succeed
		prunes  bool // the script must see at least one pruned answer
		rejects bool // PruneUnitAdd must reject at least one unit add; else none
	}{
		{"deployment/incremental", randomProblem(t, 3, 245, 24, 72), false, true, true, true},
		// The scan-min regime prunes mid-settle but journals no patch,
		// so it keeps no slots, and its child lists are stale, so it
		// rejects no unit add.
		{"deployment/incremental-tiny", randomProblem(t, 4, 200, 8, 24), false, false, true, false},
		{"deployment/reference", randomProblem(t, 3, 245, 24, 72), true, false, false, false},
		{"placement/incremental", testPlacementInstance(t, 5), false, true, false, false},
		{"placement/reference", testPlacementInstance(t, 5), true, false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newEv := func() model.Evaluator {
				t.Helper()
				var (
					ev  model.Evaluator
					err error
				)
				if tc.ref {
					ev, err = tc.inst.NewReferenceEvaluator()
				} else {
					ev, err = tc.inst.NewEvaluator()
				}
				if err != nil {
					t.Fatalf("new evaluator: %v", err)
				}
				return ev
			}
			base := protocolBase(tc.inst)
			cands := protocolCandidates(tc.inst, base, 40)
			if len(cands) < 4 {
				t.Fatalf("only %d candidates", len(cands))
			}
			ev := newEv()
			ev.EnableProbeCache(len(cands))
			baseCost, err := ev.Cost(base)
			if err != nil {
				t.Fatalf("Cost: %v", err)
			}

			// fresh prices candidate k by plain CostDelta and reverts.
			fresh := func(k int) float64 {
				t.Helper()
				cost, err := ev.CostDelta(cands[k])
				if err != nil {
					t.Fatalf("candidate %d: CostDelta: %v", k, err)
				}
				if err := ev.Revert(); err != nil {
					t.Fatalf("candidate %d: Revert: %v", k, err)
				}
				return cost
			}
			// resolvePending checks that an unpruned answer left a
			// pending probe, then reverts it.
			resolvePending := func(k int) {
				t.Helper()
				if _, err := ev.CostDelta(cands[k]); err == nil {
					t.Fatalf("candidate %d: second probe on a pending evaluator succeeded", k)
				}
				if _, _, err := ev.CostDeltaCached(k, cands[k], math.Inf(1)); err == nil {
					t.Fatalf("candidate %d: second cached probe on a pending evaluator succeeded", k)
				}
				if _, ok := ev.CommitCached(k); ok {
					t.Fatalf("candidate %d: CommitCached succeeded on a pending evaluator", k)
				}
				if ev.PruneUnitAdd(cands[k][0].Post, 0) {
					t.Fatalf("candidate %d: PruneUnitAdd rejected over a pending probe", k)
				}
				if err := ev.Revert(); err != nil {
					t.Fatalf("candidate %d: Revert: %v", k, err)
				}
			}

			var prunes, hits int
			for k := range cands {
				want := fresh(k)
				// A +Inf limit prices exactly and never prunes.
				cost, pruned, err := ev.CostDeltaCached(k, cands[k], math.Inf(1))
				if err != nil || pruned {
					t.Fatalf("candidate %d: +Inf CostDeltaCached pruned=%v err=%v", k, pruned, err)
				}
				if math.Float64bits(cost) != math.Float64bits(want) {
					t.Fatalf("candidate %d: cached probe %.17g != CostDelta %.17g", k, cost, want)
				}
				resolvePending(k)

				// A limit above the exact cost never prunes; a limit of 0
				// (below every cost) may.
				for _, limit := range []float64{want + 1, 0} {
					cost, pruned, err := ev.CostDeltaCached(k, cands[k], limit)
					if err != nil {
						t.Fatalf("candidate %d: CostDeltaCached(limit %g): %v", k, limit, err)
					}
					if pruned {
						if want < limit {
							t.Fatalf("candidate %d: pruned at limit %g but costs %.17g", k, limit, want)
						}
						prunes++
						// Idle: a probe goes through with no Commit/Revert.
						if got := fresh(k); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("candidate %d: after a prune CostDelta gives %.17g, want %.17g", k, got, want)
						}
						continue
					}
					if math.Float64bits(cost) != math.Float64bits(want) {
						t.Fatalf("candidate %d: unpruned cost %.17g != CostDelta %.17g", k, cost, want)
					}
					resolvePending(k)
				}

				// The slot now holds candidate k (unless the evaluator
				// keeps none): a hit re-prices it bit-identically.
				for _, limit := range []float64{math.Inf(1), want + 1, 0} {
					cost, pruned, ok := ev.CachedCostBounded(k, limit)
					if !ok {
						continue
					}
					if !tc.caches {
						t.Fatalf("candidate %d: an evaluator without slots answered a lookup", k)
					}
					hits++
					if pruned {
						if want < limit {
							t.Fatalf("candidate %d: cached answer pruned at limit %g but costs %.17g", k, limit, want)
						}
						prunes++
						continue
					}
					if math.Float64bits(cost) != math.Float64bits(want) {
						t.Fatalf("candidate %d: cache hit %.17g != CostDelta %.17g (limit %g)", k, cost, want, limit)
					}
				}
			}
			if tc.ref && prunes != 0 {
				t.Fatalf("reference evaluator pruned %d answers", prunes)
			}
			if tc.prunes && prunes == 0 {
				t.Fatalf("no answer was pruned")
			}
			if tc.caches && hits == 0 {
				t.Fatalf("no slot lookup hit")
			}

			// Unit adds: a rejection is at or above its limit and leaves
			// the evaluator idle with its prices unchanged.
			rejections := 0
			unit := make([]model.Move, 1)
			for post := range base {
				if base[post]+1 > tc.inst.UpperBound(post) {
					continue
				}
				unit[0] = model.Move{Post: post, Delta: 1}
				want, err := ev.CostDelta(unit)
				if err != nil {
					t.Fatalf("unit add %d: CostDelta: %v", post, err)
				}
				if err := ev.Revert(); err != nil {
					t.Fatal(err)
				}
				for _, limit := range []float64{math.Inf(1), want + 1, want, want * 0.999, 0} {
					if !ev.PruneUnitAdd(post, limit) {
						continue
					}
					if !tc.rejects {
						t.Fatalf("unit add %d: rejected at limit %g by an evaluator that must not reject", post, limit)
					}
					if want < limit {
						t.Fatalf("unit add %d: rejected at limit %g but costs %.17g", post, limit, want)
					}
					rejections++
					got, err := ev.CostDelta(unit)
					if err != nil {
						t.Fatalf("unit add %d: CostDelta after a rejection: %v", post, err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("unit add %d: after a rejection CostDelta gives %.17g, want %.17g", post, got, want)
					}
					if err := ev.Revert(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.rejects && rejections == 0 {
				t.Fatalf("no unit add was rejected")
			}

			// Promotion: CommitCached against CostDelta+Commit on a twin.
			twin := newEv()
			if _, err := twin.Cost(base); err != nil {
				t.Fatalf("twin Cost: %v", err)
			}
			for _, k := range []int{0, len(cands) / 2} {
				promoted, ok := ev.CommitCached(k)
				if !tc.caches && ok {
					t.Fatalf("candidate %d: an evaluator without slots promoted one", k)
				}
				if tc.caches && !ok {
					t.Fatalf("candidate %d: CommitCached missed on a cached slot", k)
				}
				if !ok {
					// Untouched: the committed state still prices as base.
					if cost, err := ev.CostDelta(nil); err != nil || math.Float64bits(cost) != math.Float64bits(baseCost) {
						t.Fatalf("candidate %d: failed CommitCached moved the base: %.17g (err %v), want %.17g", k, cost, err, baseCost)
					}
					if err := ev.Revert(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := twin.CostDelta(cands[k])
				if err != nil {
					t.Fatalf("twin CostDelta: %v", err)
				}
				if err := twin.Commit(); err != nil {
					t.Fatalf("twin Commit: %v", err)
				}
				if math.Float64bits(promoted) != math.Float64bits(want) {
					t.Fatalf("candidate %d: CommitCached %.17g != CostDelta+Commit %.17g", k, promoted, want)
				}
				// Same committed state: every candidate still valid from
				// the new base prices identically on both.
				for j := range cands {
					a, errA := ev.CostDelta(cands[j])
					b, errB := twin.CostDelta(cands[j])
					if (errA == nil) != (errB == nil) {
						t.Fatalf("after promoting %d, candidate %d: errors %v vs %v", k, j, errA, errB)
					}
					if errA != nil {
						continue
					}
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("after promoting %d, candidate %d: %.17g vs %.17g", k, j, a, b)
					}
					if err := ev.Revert(); err != nil {
						t.Fatal(err)
					}
					if err := twin.Revert(); err != nil {
						t.Fatal(err)
					}
				}
				// Re-cache the second promotion's slot against the new base.
				k2 := len(cands) / 2
				if _, _, err := ev.CostDeltaCached(k2, cands[k2], math.Inf(1)); err == nil {
					if err := ev.Revert(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}
