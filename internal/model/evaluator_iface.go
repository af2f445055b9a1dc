package model

import "fmt"

// Move adjusts one post's node count by Delta (which may be negative).
// A slice of Moves describes how one candidate deployment differs from
// the deployment an Evaluator currently holds — the unit of work of the
// delta-aware evaluation protocol.
type Move struct {
	Post  int
	Delta int
}

// Evaluator is the move-based evaluation protocol every solver hot loop
// is written against:
//
//	cost, _ := ev.Cost(m)            // establish a base deployment
//	probe, _ := ev.CostDelta(moves)  // price base+moves without committing
//	ev.Commit()                      // ... accept the probed deployment,
//	ev.Revert()                      // ... or restore the base
//
// Cost fully (re)evaluates an arbitrary deployment and makes it the
// committed base. CostDelta prices the committed base with moves applied
// and leaves the evaluator in a pending state that must be resolved by
// exactly one Commit or Revert before the next probe. Implementations
// must price identically to a fresh CostEvaluator.MinCost on the
// materialised vector (the differential and fuzz suites pin this).
//
// Solvers that re-scan a fixed candidate set between commits (IDB
// rounds, local-search sweeps) probe through a slot cache instead: each
// candidate's probe is snapshotted under a stable slot id, re-priced
// bit-exactly while no committed move touched anything it read, and
// promoted straight to the committed state when it wins a round.
//
//   - EnableProbeCache(slots) sizes the cache at slot ids [0, slots).
//   - CostDeltaCached(id, moves, limit) is a fresh probe that snapshots
//     its repair under slot id. pruned=true guarantees the probe's exact
//     cost is >= limit and leaves the evaluator idle on its committed
//     state (no Commit/Revert is due); pruned=false leaves the probe
//     pending with its exact cost, as CostDelta does.
//   - CachedCostBounded(id, limit) re-prices a slot against the idle
//     committed state under the same one-way guarantee. ok=false is a
//     miss (invalidated by an intersecting Commit or a full Cost, or
//     never cached) and the candidate must be re-probed.
//   - CommitCached(id) promotes a slot to the committed state. ok=false
//     leaves the evaluator untouched, and the caller commits through
//     CostDelta+Commit instead.
//
// A limit of +Inf prices exactly. Implementations may decline to cache
// (every lookup and promotion misses) and may price exactly without ever
// pruning: the slot calls license reuse and early answers, they never
// change results. Every returned cost is bit-identical to re-probing,
// which the differential suites pin.
//
// IncrementalEvaluator is the production implementation (local
// shortest-path repair per probe, a patch cache and patch-bound
// pruning); NewReferenceEvaluator wraps the stateless CostEvaluator in
// the same protocol as a correctness oracle that keeps no slots and
// never prunes. Implementations are not safe for concurrent use;
// parallel solvers hold one per worker.
type Evaluator interface {
	Cost(m []int) (float64, error)
	CostDelta(moves []Move) (float64, error)
	Commit() error
	Revert() error
	EnableProbeCache(slots int)
	CostDeltaCached(id int, moves []Move, limit float64) (cost float64, pruned bool, err error)
	CachedCostBounded(id int, limit float64) (cost float64, pruned, ok bool)
	CommitCached(id int) (cost float64, ok bool)
}

// EvaluatorFeatures names the evaluator-level optimisations this build
// enables, keyed for perf artifacts (BENCH_*.json) so benchmark records
// are self-describing: a future change that flips one of these shows up
// in the artifact, not just in the git history next to it.
func EvaluatorFeatures() map[string]bool {
	return map[string]bool{
		// Dirty-candidate pruning + probe-promoting Commit (the
		// Evaluator's slot calls).
		"probe_cache":     true,
		"probe_promotion": true,
		// Limit-aware probes for branch-and-bound
		// (IncrementalEvaluator.CostDeltaBounded).
		"bounded_probes": true,
		// Branch-and-bound rejects bound probes from the parent node's
		// saved distances before applying any move (PruneByFloor).
		"floor_bounds": true,
		// Branch and bound rejects whole nodes by a Lagrangian bound on
		// the shared budget, priced by one shortest-path tree, before
		// applying any move (PruneByRelayBound).
		"relay_bounds": true,
		// The relay bound's chords stop at the most energy any routing
		// tree can make a post spend, which strengthens it and moves
		// branch and bound's evaluation counts.
		"relay_energy_caps": true,
		// IDB and local search prune candidates that cannot win from
		// their repair patch's lower bound, skipping the O(N) cost fold
		// (CostDeltaCached, CachedCostBounded).
		"bounded_candidates": true,
	}
}

// ReferenceEvaluator adapts the stateless CostEvaluator to the Evaluator
// protocol by materialising every probe into a full vector and pricing it
// from scratch. It is the trivially correct oracle the incremental
// implementation is differentially tested against, and a drop-in
// fallback for callers that want the protocol without incremental state.
// It keeps no probe slots: CostDeltaCached is CostDelta and never prunes,
// and every lookup and promotion misses.
type ReferenceEvaluator struct {
	ev      *CostEvaluator
	cur     []int
	pending []int
	probed  bool
	have    bool
}

// NewReferenceEvaluator returns a protocol adapter over a fresh
// CostEvaluator for p.
func NewReferenceEvaluator(p *Problem) (*ReferenceEvaluator, error) {
	ev, err := NewCostEvaluator(p)
	if err != nil {
		return nil, err
	}
	n := p.N()
	return &ReferenceEvaluator{ev: ev, cur: make([]int, n), pending: make([]int, n)}, nil
}

// Cost fully evaluates m and makes it the committed deployment.
func (r *ReferenceEvaluator) Cost(m []int) (float64, error) {
	if r.probed {
		return 0, errPendingProbe
	}
	cost, err := r.ev.MinCost(m)
	if err != nil {
		return 0, err
	}
	copy(r.cur, m)
	r.have = true
	return cost, nil
}

// CostDelta prices the committed deployment with moves applied.
func (r *ReferenceEvaluator) CostDelta(moves []Move) (float64, error) {
	if !r.have {
		return 0, errNoBase
	}
	if r.probed {
		return 0, errPendingProbe
	}
	copy(r.pending, r.cur)
	for _, mv := range moves {
		if mv.Post < 0 || mv.Post >= len(r.pending) {
			return 0, fmt.Errorf("model: move targets post %d of %d", mv.Post, len(r.pending))
		}
		r.pending[mv.Post] += mv.Delta
	}
	cost, err := r.ev.MinCost(r.pending)
	if err != nil {
		return 0, err
	}
	r.probed = true
	return cost, nil
}

// Commit accepts the last probe as the committed deployment.
func (r *ReferenceEvaluator) Commit() error {
	if !r.probed {
		return errNoProbe
	}
	r.cur, r.pending = r.pending, r.cur
	r.probed = false
	return nil
}

// Revert discards the last probe.
func (r *ReferenceEvaluator) Revert() error {
	if !r.probed {
		return errNoProbe
	}
	r.probed = false
	return nil
}

// EnableProbeCache is a no-op: the reference evaluator keeps no slots.
func (r *ReferenceEvaluator) EnableProbeCache(int) {}

// CostDeltaCached is CostDelta; it never prunes and caches nothing.
func (r *ReferenceEvaluator) CostDeltaCached(_ int, moves []Move, _ float64) (float64, bool, error) {
	cost, err := r.CostDelta(moves)
	return cost, false, err
}

// CachedCostBounded always misses.
func (r *ReferenceEvaluator) CachedCostBounded(int, float64) (float64, bool, bool) {
	return 0, false, false
}

// CommitCached always misses, leaving the evaluator untouched.
func (r *ReferenceEvaluator) CommitCached(int) (float64, bool) { return 0, false }
