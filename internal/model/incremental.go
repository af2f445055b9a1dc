package model

import (
	"errors"
	"fmt"

	"wrsn/internal/graph"
)

// Protocol-misuse errors shared by the Evaluator implementations.
var (
	errNoBase       = errors.New("model: evaluator has no committed deployment; call Cost first")
	errPendingProbe = errors.New("model: evaluator has a pending probe; Commit or Revert it first")
	errNoProbe      = errors.New("model: evaluator has no pending probe")
)

// IncrementalEvaluator is the delta-aware implementation of the Evaluator
// protocol: it keeps the last accepted deployment's per-post charging
// efficiencies, shortest recharging-cost distances and tight-parent
// structure, and prices a probe by *repairing* that solution instead of
// re-running Dijkstra from scratch.
//
// A move at post i only reprices the communication edges incident to i,
// so the repair is local:
//
//   - posts whose efficiency rose (nodes added) can only shorten
//     distances; the repair seeds a Dijkstra pass from the repriced edges
//     and lets improvements propagate. When one post rose and none fell
//     (IDB's candidates) it walks that post's committed subtree instead
//     and queues only the vertices an off-tree edge could still improve
//     from (treeRepair).
//   - posts whose efficiency fell (nodes removed) can only lengthen the
//     distances of vertices whose shortest path routed through them. That
//     is exactly the weakened posts' subtrees in the tight-parent tree,
//     which the evaluator maintains as intrusive child lists — so the
//     dirty set is collected in O(|dirty|), invalidated, and re-settled
//     from its boundary. When the dirty set covers more than half the
//     posts the repair falls back to one full Dijkstra run (it would
//     cost as much anyway).
//
// The hot loops run over the frozen commCSR slices with *maintained*
// weight-component arrays: inTxw[s] = tx/eff[tail] per in slot and
// rxw[v] = rx/eff[v] per vertex (0 for the BS), refreshed only for the
// slots a move touches. A relaxation is then dv + (inTxw[s] + rxw[v])
// with no division — the exact operation tree edgeWeight computes — so
// repaired shortest-path values are bit-identical to a fresh
// CostEvaluator.MinCost on the materialised vector; the differential and
// fuzz suites pin that equivalence.
//
// The repair and full runs pop from one IndexedMinHeap in (priority,
// key) order; graphs of at most tinyVerts vertices skip the queue and
// settle by scan-min instead.
//
// Every touched distance is journaled, so Revert restores the committed
// state in O(touched) and a probe/revert cycle allocates nothing in
// steady state.
//
// Not safe for concurrent use: parallel solvers hold one per worker.
type IncrementalEvaluator struct {
	p  *Problem
	n  int
	bs int
	rx float64

	c *commCSR

	// Maintained weight components (always consistent with eff):
	//   rxw[v]   = rx/eff[v] for posts, 0 for the BS
	//   inTxw[s] = inTx[s]/eff[inFrom[s]]
	// Edge weight of in slot s into v is inTxw[s] + rxw[v], associated
	// exactly as edgeWeight computes it.
	rxw   []float64
	inTxw []float64

	// Committed (or probed) state.
	m    []int
	eff  []float64
	dist []float64
	par  []int // par[u]: tight parent of post u (a post, or bs)
	cost float64
	have bool

	// Intrusive child lists mirroring par: childHead[v] is the first
	// child of v (-1 none), childNext/childPrev link siblings. They turn
	// "every vertex routing through post d" into a subtree walk.
	childHead []int32
	childNext []int32
	childPrev []int32

	rates []float64
	// rateTotal = sum of rates, maintained for CostDeltaBounded's
	// partial-settle lower bound.
	rateTotal float64
	q         *graph.IndexedMinHeap

	// Lazily grown cache of Charging.NetworkEfficiency(m) for m >= 1.
	effTab []float64

	// Probe bookkeeping.
	state       int // idle / probed
	pendingCost float64
	journal     []distSave
	effLog      []effSave
	full        bool // probe recomputed fully; snapshots hold the base
	distSnap    []float64
	parSnap     []int

	// Epoch-stamped scratch (no per-probe clearing).
	epoch      int64
	dirtyEpoch int64
	mark       []int64
	chain      []int
	affected   []int
	ups        []int
	downs      []int

	// Subtree-walk table (see treeRepair), built lazily from the
	// committed state, with PruneUnitAdd's subtree sums (buildTables), by
	// the first single-strengthening probe or PruneUnitAdd after Cost,
	// Commit or CommitCached, which drop it:
	//   minRC[v]   = min over v's in-edges from non-children u of the
	//                reduced cost (d(v) + (inTxw[s] + rxw[v])) - d(u)
	//   parSlot[u] = in slot of u's tree edge
	//   rcMargin   = rcMarginScale * max(finite d(v), rxw[v]) over posts
	treeOK   bool
	minRC    []float64
	parSlot  []int32
	rcMargin float64
	// heapOnly makes every repair take repairDist's heap path; the
	// differential test prices each probe both ways.
	heapOnly bool

	// Probe cache (nil until EnableProbeCache; see probecache.go).
	slots      []probeSlot
	slotWords  int
	dirtyMask  []uint64
	patchSaved []float64

	stats EvalStats

	// PruneByFloor scratch (nil until first used; see floor.go).
	lbEff []float64
	lbRxw []float64

	// PruneByRelayBound scratch (nil until first used; see relaybound.go).
	rb *relayScratch

	// PruneUnitAdd tables (nil until the first tree table; see
	// treebound.go).
	tb *treeBound
}

// distSave journals one vertex's pre-probe shortest-path state. Entries
// may repeat within a probe; Revert replays them in reverse, so the
// oldest (correct) value wins.
type distSave struct {
	v    int32
	par  int32
	dist float64
}

// effSave journals one changed post's pre-probe deployment state (one
// entry per distinct post per probe).
type effSave struct {
	post   int
	oldM   int
	newM   int
	oldEff float64
	newEff float64
}

const (
	stateIdle = iota
	stateProbed
)

// tinyVerts is the vertex count at or below which every probe runs a
// full scan-min Dijkstra instead of the journaled local repair. On
// graphs this small the repair's machinery — queue resets, boundary
// reseeding, dirty-subtree walks, per-vertex journaling — costs more
// than re-settling all vertices with a linear extract-min, which also
// needs no priority queue at all. Repaired and from-scratch distances
// are bit-identical by construction (same relaxation arithmetic, and a
// vertex's distance is the minimum over the same per-path float sums
// regardless of settle order), so the switch can never change a cost.
const tinyVerts = 16

// boundedSlack is the safety margin CostDeltaBounded and PruneByFloor
// add on top of the caller's limit before abandoning a probe. The
// partial-settle estimate and totalCost accumulate the same per-post
// terms in different float orders, whose divergence is bounded by ~n*eps
// of the cost magnitude (~1e-10 nJ at this suite's scale); 1e-6 dwarfs
// that, so a pruned probe's exactly-summed cost is guaranteed to be >=
// limit. The margin only makes pruning more conservative — probes within
// boundedSlack of the limit complete and return their exact cost.
const boundedSlack = 1e-6

// EvalStats counts how an IncrementalEvaluator answered its queries;
// probes not covered by Repairs/Fallbacks/BoundedPrunes changed no edge
// weight (e.g. moves past a saturating gain's cap) and were priced from
// the standing solution directly.
type EvalStats struct {
	// FullEvals counts Cost calls (full Dijkstra over the whole graph).
	FullEvals int64
	// Probes counts CostDelta calls.
	Probes int64
	// Repairs counts probes priced by local shortest-path repair.
	Repairs int64
	// Fallbacks counts probes that fell back to a full re-run because
	// the dirty region spanned too much of the graph.
	Fallbacks int64
	// TreeRepairs counts the Repairs priced by the subtree walk (a probe
	// that strengthens exactly one post and weakens none) instead of the
	// heap path.
	TreeRepairs int64
	// TreeFallbacks counts subtree walks handed back to the heap path
	// because its settle would have improved a walked vertex (a rounding
	// effect) or met a weight lost to rounding; those probes count in
	// Repairs, not TreeRepairs.
	TreeFallbacks int64
	// BoundedPrunes counts probes abandoned mid-settle because a
	// partial-settle lower bound already reached the caller's limit:
	// CostDeltaBounded, and CostDeltaCached in the scan-min regime.
	BoundedPrunes int64
	// PricePrunes counts answers of CostDeltaCached (fresh journaled
	// probes) and CachedCostBounded (cached re-prices) that a repair
	// patch's lower bound proved at or above the caller's limit, so the
	// O(N) totalCost fold never ran. A pruned fresh probe still ran its
	// repair and counts in Probes and Repairs; a pruned re-price counts
	// in CacheHits.
	PricePrunes int64
	// FloorPrunes counts PruneByFloor calls that proved a deployment
	// reaches the caller's limit from a saved Floor, before any move was
	// applied. They are not probes and do not count in Probes.
	FloorPrunes int64
	// RelayPrunes counts PruneByRelayBound calls that proved every
	// completion of a branch-and-bound node reaches the caller's limit,
	// before any move was applied. Like FloorPrunes they are not probes.
	RelayPrunes int64
	// CacheHits counts candidates answered from the probe cache
	// without a repair (CachedCost, CachedCostBounded), pruned or not.
	CacheHits int64
	// CachePromotes counts commits replayed from a cached probe's patch
	// instead of a second repair (CommitCached).
	CachePromotes int64
	// TreePrunes counts PruneUnitAdd calls that proved a unit add reaches
	// the caller's limit from the committed tree, before any repair. Like
	// FloorPrunes they are not probes.
	TreePrunes int64
}

// NewIncrementalEvaluator precomputes the communication topology of p.
// Call Cost to establish the first committed deployment.
func NewIncrementalEvaluator(p *Problem) (*IncrementalEvaluator, error) {
	n := p.N()
	c, err := buildCommCSR(p)
	if err != nil {
		return nil, err
	}
	m := c.numEdges()
	rates := buildRates(p, n)
	var rateTotal float64
	for _, r := range rates {
		rateTotal += r
	}
	return &IncrementalEvaluator{
		p:         p,
		n:         n,
		bs:        n,
		rx:        p.Energy.RxEnergy(),
		c:         c,
		rxw:       make([]float64, n+1),
		inTxw:     make([]float64, m),
		m:         make([]int, n),
		eff:       make([]float64, n),
		dist:      make([]float64, n+1),
		par:       make([]int, n),
		childHead: make([]int32, n+1),
		childNext: make([]int32, n),
		childPrev: make([]int32, n),
		rates:     rates,
		rateTotal: rateTotal,
		q:         graph.NewIndexedMinHeap(n + 1),
		distSnap:  make([]float64, n+1),
		parSnap:   make([]int, n),
		mark:      make([]int64, n),
	}, nil
}

// Stats returns cumulative query counters.
func (ev *IncrementalEvaluator) Stats() EvalStats { return ev.stats }

// netEff is Charging.NetworkEfficiency through a lazily grown cache:
// counts repeat constantly across probes and the gain factor is a pure
// function of m. Errors (m < 1) stay uncached.
func (ev *IncrementalEvaluator) netEff(m int) (float64, error) {
	if m >= 1 && m < len(ev.effTab) {
		if e := ev.effTab[m]; e > 0 {
			return e, nil
		}
	}
	e, err := ev.p.Charging.NetworkEfficiency(m)
	if err != nil {
		return 0, err
	}
	if m >= len(ev.effTab) {
		grown := make([]float64, m+16)
		copy(grown, ev.effTab)
		ev.effTab = grown
	}
	ev.effTab[m] = e
	return e, nil
}

// reweightPost refreshes the maintained weight components for every edge
// incident to post i after eff[i] changed. The divisions are exactly
// edgeWeight's, so relaxations stay bit-identical to on-the-fly pricing.
func (ev *IncrementalEvaluator) reweightPost(i int) {
	c := ev.c
	effI := ev.eff[i]
	ev.rxw[i] = ev.rx / effI
	for os := c.outOff[i]; os < c.outOff[i+1]; os++ {
		ev.inTxw[c.outSlot[os]] = c.outTx[os] / effI
	}
}

// reweightAll rebuilds the maintained weight components from scratch
// under the current efficiencies.
func (ev *IncrementalEvaluator) reweightAll() {
	c := ev.c
	ev.rxw[ev.bs] = 0
	for i := 0; i < ev.n; i++ {
		ev.rxw[i] = ev.rx / ev.eff[i]
	}
	for s := range ev.inTxw {
		ev.inTxw[s] = c.inTx[s] / ev.eff[c.inFrom[s]]
	}
}

// setPar reparents post u, keeping the intrusive child lists in sync.
// np == -1 detaches u (an invalidated vertex).
func (ev *IncrementalEvaluator) setPar(u, np int) {
	op := ev.par[u]
	if op == np {
		return
	}
	if op >= 0 {
		prev, next := ev.childPrev[u], ev.childNext[u]
		if prev >= 0 {
			ev.childNext[prev] = next
		} else {
			ev.childHead[op] = next
		}
		if next >= 0 {
			ev.childPrev[next] = prev
		}
	}
	ev.par[u] = np
	if np >= 0 {
		head := ev.childHead[np]
		ev.childNext[u] = head
		ev.childPrev[u] = -1
		if head >= 0 {
			ev.childPrev[head] = int32(u)
		}
		ev.childHead[np] = int32(u)
	}
}

// syncChildren rebuilds the child lists after a bulk par rewrite — a
// no-op in the tiny regime, where every probe recomputes fully and the
// lists (which exist only for repairDist's dirty-subtree collection)
// are never read.
func (ev *IncrementalEvaluator) syncChildren() {
	if ev.n+1 <= tinyVerts {
		return
	}
	ev.rebuildChildren()
}

// rebuildChildren derives the child lists from par after a bulk rewrite
// (full Dijkstra, snapshot restore).
func (ev *IncrementalEvaluator) rebuildChildren() {
	for i := range ev.childHead {
		ev.childHead[i] = -1
	}
	for u := 0; u < ev.n; u++ {
		p := ev.par[u]
		if p < 0 {
			continue
		}
		head := ev.childHead[p]
		ev.childNext[u] = head
		ev.childPrev[u] = -1
		if head >= 0 {
			ev.childPrev[head] = int32(u)
		}
		ev.childHead[p] = int32(u)
	}
}

// Cost fully evaluates m and makes it the committed deployment. On error
// the evaluator loses its committed state and Cost must be called again.
func (ev *IncrementalEvaluator) Cost(m []int) (float64, error) {
	if ev.state != stateIdle {
		return 0, errPendingProbe
	}
	if len(m) != ev.n {
		return 0, fmt.Errorf("model: deployment covers %d posts, want %d", len(m), ev.n)
	}
	for i, mi := range m {
		e, err := ev.netEff(mi)
		if err != nil {
			ev.have = false
			return 0, fmt.Errorf("model: post %d: %w", i, err)
		}
		ev.eff[i] = e
	}
	copy(ev.m, m)
	ev.reweightAll()
	ev.fullDijkstra()
	cost, err := totalCost(ev.p, ev.n, ev.dist, ev.eff, ev.rates)
	if err != nil {
		ev.have = false
		return 0, err
	}
	ev.cost = cost
	ev.have = true
	ev.journal = ev.journal[:0]
	ev.effLog = ev.effLog[:0]
	ev.full = false
	ev.treeOK = false
	ev.stats.FullEvals++
	ev.invalidateAllSlots() // the cached patches' base is gone
	return cost, nil
}

// CostDelta prices the committed deployment with moves applied, leaving
// the evaluator pending until Commit or Revert. Moves may repeat posts;
// deltas accumulate. Every resulting count must stay >= 1.
func (ev *IncrementalEvaluator) CostDelta(moves []Move) (float64, error) {
	cost, _, err := ev.costDeltaLimited(moves, inf)
	return cost, err
}

// CostDeltaBounded is CostDelta with an early abort: while re-settling
// the shortest-path solution it maintains a monotone lower bound on the
// final cost — settled posts' terms exactly, unsettled posts priced at
// the current frontier distance — and once that bound reaches
// limit+boundedSlack the probe is abandoned. An abandoned probe leaves
// the evaluator idle on the committed deployment (no Commit/Revert due)
// and reports pruned=true, which guarantees the probe's exact cost
// would have been >= limit; a completed probe behaves exactly like
// CostDelta. The early exit engages in the scan-min regime (n+1 <=
// tinyVerts, where the exact searches operate); larger instances price
// exactly and never prune here. Branch and bound calls this only for
// probes PruneByRelayBound and PruneByFloor could not reject, so the
// probes that reach it are the hard ones.
func (ev *IncrementalEvaluator) CostDeltaBounded(moves []Move, limit float64) (float64, bool, error) {
	return ev.costDeltaLimited(moves, limit)
}

func (ev *IncrementalEvaluator) costDeltaLimited(moves []Move, limit float64) (float64, bool, error) {
	if err := ev.applyMoves(moves); err != nil {
		return 0, false, err
	}
	if limit < inf && ev.n+1 <= tinyVerts {
		return ev.boundedRepairAndPrice(limit)
	}
	ev.repair()
	return ev.pricePending()
}

// applyMoves opens a probe: it applies moves to the committed counts,
// journaling one record per distinct post with its old and new
// efficiency. Distances and weights are untouched until the repair.
func (ev *IncrementalEvaluator) applyMoves(moves []Move) error {
	if !ev.have {
		return errNoBase
	}
	if ev.state != stateIdle {
		return errPendingProbe
	}
	ev.stats.Probes++

	ev.effLog = ev.effLog[:0]
	ev.epoch++
	e0 := ev.epoch
	for _, mv := range moves {
		if mv.Post < 0 || mv.Post >= ev.n {
			ev.rollbackMoves()
			return fmt.Errorf("model: move targets post %d of %d", mv.Post, ev.n)
		}
		if ev.mark[mv.Post] != e0 {
			ev.mark[mv.Post] = e0
			ev.effLog = append(ev.effLog, effSave{post: mv.Post, oldM: ev.m[mv.Post], oldEff: ev.eff[mv.Post]})
		}
		ev.m[mv.Post] += mv.Delta
	}
	for i := range ev.effLog {
		rec := &ev.effLog[i]
		newM := ev.m[rec.post]
		rec.newM = newM
		if newM == rec.oldM {
			rec.newEff = rec.oldEff
			continue
		}
		e, err := ev.netEff(newM)
		if err != nil {
			ev.rollbackMoves()
			return fmt.Errorf("model: post %d: %w", rec.post, err)
		}
		rec.newEff = e
	}
	return nil
}

// pricePending finishes a repaired probe: the fixed-order totalCost
// fold, leaving the probe pending until Commit or Revert.
func (ev *IncrementalEvaluator) pricePending() (float64, bool, error) {
	cost, err := totalCost(ev.p, ev.n, ev.dist, ev.eff, ev.rates)
	if err != nil {
		// Disconnection cannot arise from deployment changes (the edge
		// set is range-based and fixed), so only defensive paths land
		// here; leave the evaluator needing a fresh Cost.
		ev.have = false
		return 0, false, err
	}
	ev.state = stateProbed
	ev.pendingCost = cost
	return cost, false, nil
}

// boundedRepairAndPrice is repair's limit-aware tiny-graph variant,
// followed by pricing: it applies the probe's efficiency changes,
// snapshots the committed solution, and re-settles by the bounded
// scan-min walk. On
// prune it rolls the evaluator all the way back to idle; on completion
// it leaves the probe pending exactly as CostDelta would.
func (ev *IncrementalEvaluator) boundedRepairAndPrice(limit float64) (float64, bool, error) {
	changed := false
	for i := range ev.effLog {
		rec := &ev.effLog[i]
		if rec.newEff == rec.oldEff {
			continue
		}
		ev.eff[rec.post] = rec.newEff
		ev.reweightPost(rec.post)
		changed = true
	}
	var pruned bool
	if changed {
		copy(ev.distSnap, ev.dist)
		copy(ev.parSnap, ev.par)
		ev.full = true
		pruned = ev.tinyDijkstra(limit)
	}
	// else: no edge weight changed (e.g. a move past a saturating gain's
	// cap) — the standing solution already prices this deployment.
	if pruned {
		// Put the committed solution back; the probe never happened.
		copy(ev.dist, ev.distSnap)
		copy(ev.par, ev.parSnap)
		for i := len(ev.effLog) - 1; i >= 0; i-- {
			rec := ev.effLog[i]
			ev.m[rec.post] = rec.oldM
			if rec.newEff != rec.oldEff {
				ev.eff[rec.post] = rec.oldEff
				ev.reweightPost(rec.post)
			}
		}
		ev.effLog = ev.effLog[:0]
		ev.full = false
		ev.stats.BoundedPrunes++
		return 0, true, nil
	}
	if changed {
		ev.stats.Fallbacks++ // parity with repair's tiny path
	}
	return ev.pricePending()
}

// Commit accepts the last probe as the committed deployment.
func (ev *IncrementalEvaluator) Commit() error {
	if ev.state != stateProbed {
		return errNoProbe
	}
	ev.invalidateForCommit()
	ev.state = stateIdle
	ev.treeOK = false
	ev.cost = ev.pendingCost
	ev.journal = ev.journal[:0]
	ev.effLog = ev.effLog[:0]
	ev.full = false
	return nil
}

// Revert discards the last probe, restoring the committed deployment's
// state in O(touched).
func (ev *IncrementalEvaluator) Revert() error {
	if ev.state != stateProbed {
		return errNoProbe
	}
	ev.revertProbe()
	return nil
}

// revertProbe is Revert's body, also run on a probe that was repaired
// but never left pending (CostDeltaCached's prune).
func (ev *IncrementalEvaluator) revertProbe() {
	if ev.full {
		copy(ev.dist, ev.distSnap)
		copy(ev.par, ev.parSnap)
		ev.syncChildren()
		ev.full = false
	} else {
		ev.restoreJournal()
	}
	for i := len(ev.effLog) - 1; i >= 0; i-- {
		rec := ev.effLog[i]
		ev.m[rec.post] = rec.oldM
		ev.eff[rec.post] = rec.oldEff
		if rec.newEff != rec.oldEff {
			ev.reweightPost(rec.post)
		}
	}
	ev.journal = ev.journal[:0]
	ev.effLog = ev.effLog[:0]
	ev.state = stateIdle
}

// BestParents returns a parent vector realising the minimum cost of m
// along with that cost, identically to CostEvaluator.BestParents. When m
// is the committed deployment (the usual case: solvers finalise the
// deployment they just accepted) the standing distances are reused and
// no Dijkstra runs.
func (ev *IncrementalEvaluator) BestParents(m []int) ([]int, float64, error) {
	parents := make([]int, ev.n)
	total, err := ev.BestParentsInto(parents, m)
	if err != nil {
		return nil, 0, err
	}
	return parents, total, nil
}

// BestParentsInto is BestParents writing into a caller-provided buffer.
func (ev *IncrementalEvaluator) BestParentsInto(parents []int, m []int) (float64, error) {
	if ev.state != stateIdle {
		return 0, errPendingProbe
	}
	if !ev.have || !sameCounts(ev.m, m) {
		if _, err := ev.Cost(m); err != nil {
			return 0, err
		}
	}
	total, err := totalCost(ev.p, ev.n, ev.dist, ev.eff, ev.rates)
	if err != nil {
		return 0, err
	}
	if err := recoverParents(ev.c, ev.eff, ev.rx, ev.dist, parents); err != nil {
		return 0, err
	}
	return total, nil
}

func sameCounts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// rollbackMoves undoes count changes after a validation failure inside
// CostDelta (efficiencies and distances are untouched at that point).
func (ev *IncrementalEvaluator) rollbackMoves() {
	for i := len(ev.effLog) - 1; i >= 0; i-- {
		ev.m[ev.effLog[i].post] = ev.effLog[i].oldM
	}
	ev.effLog = ev.effLog[:0]
}

func (ev *IncrementalEvaluator) restoreJournal() {
	for i := len(ev.journal) - 1; i >= 0; i-- {
		s := ev.journal[i]
		ev.dist[s.v] = s.dist
		ev.setPar(int(s.v), int(s.par))
	}
	ev.journal = ev.journal[:0]
}

func (ev *IncrementalEvaluator) saveDist(v int) {
	ev.journal = append(ev.journal, distSave{v: int32(v), par: int32(ev.par[v]), dist: ev.dist[v]})
}

// repair applies the probe's efficiency changes and repairs the
// shortest-path solution; pricing is left to the caller.
func (ev *IncrementalEvaluator) repair() {
	ev.ups = ev.ups[:0]
	ev.downs = ev.downs[:0]
	for _, rec := range ev.effLog {
		if rec.newEff == rec.oldEff {
			continue
		}
		if rec.newEff > rec.oldEff {
			ev.ups = append(ev.ups, rec.post)
		} else {
			ev.downs = append(ev.downs, rec.post)
		}
	}
	if len(ev.ups) == 0 && len(ev.downs) == 0 {
		// No edge weight changed (e.g. a move past a saturating gain's
		// cap): the standing solution already prices this deployment.
		return
	}
	tiny := ev.n+1 <= tinyVerts
	walk := !tiny && !ev.heapOnly && len(ev.ups) == 1 && len(ev.downs) == 0
	if walk && !ev.treeOK {
		ev.buildTables() // from the committed weights, before reweighting
	}
	var oldRxw float64
	if walk {
		oldRxw = ev.rxw[ev.ups[0]]
	}
	for _, rec := range ev.effLog {
		if rec.newEff != rec.oldEff {
			ev.eff[rec.post] = rec.newEff
			ev.reweightPost(rec.post)
		}
	}
	if tiny {
		// Tiny graph: a full scan-min re-settle beats the local repair
		// (see tinyVerts); Revert restores from the snapshot.
		ev.fullRecompute()
		return
	}
	if walk && ev.treeRepair(ev.ups[0], oldRxw) {
		return
	}
	if !ev.repairDist() {
		ev.fullRecompute()
	}
}

// repairDist repairs dist/par in place for the efficiency changes in
// ev.ups/ev.downs, journaling every touched vertex. It reports false
// when the caller should recompute from scratch instead (the dirty
// region spans most of the graph).
func (ev *IncrementalEvaluator) repairDist() bool {
	c := ev.c
	q := ev.q
	q.Reset()
	ev.journal = ev.journal[:0]
	ev.dirtyEpoch = -1

	// Increase side: routes through weakened posts may lengthen. The
	// dirty set is the union of the weakened posts' subtrees in the
	// tight-parent tree; invalidate it and re-settle it from its
	// boundary.
	if len(ev.downs) > 0 {
		if 2*len(ev.downs) > ev.n {
			// The dirty set contains every weakened post, so it already
			// spans most of the graph: skip the collection walk and take
			// the full-run fallback directly (identical decision).
			return false
		}
		ev.collectAffected()
		if 2*len(ev.affected) > ev.n {
			return false // dirty region spans most of the graph: full run is cheaper
		}
		for _, a := range ev.affected {
			ev.saveDist(a)
			ev.dist[a] = inf
			ev.setPar(a, -1)
		}
		for _, a := range ev.affected {
			best, bestPar := inf, -1
			for os := c.outOff[a]; os < c.outOff[a+1]; os++ {
				to := c.outTo[os]
				if cand := ev.dist[to] + (ev.inTxw[c.outSlot[os]] + ev.rxw[to]); cand < best {
					best, bestPar = cand, int(to)
				}
			}
			if bestPar >= 0 {
				ev.dist[a] = best
				ev.setPar(a, bestPar)
				q.Push(a, best)
			}
		}
	}

	// Decrease side: every edge incident to a strengthened post got
	// cheaper. Seed the post's own distance through its out-edges, and
	// its in-neighbours through the now-cheaper reception — the post
	// itself may never enter the queue when only reception improved.
	for _, i := range ev.ups {
		if ev.dirtyEpoch >= 0 && ev.mark[i] == ev.dirtyEpoch {
			continue // already invalidated and boundary-seeded above
		}
		if ev.seedUp(i) {
			q.Push(i, ev.dist[i])
		}
		if di := ev.dist[i]; di != inf {
			ri := ev.rxw[i]
			for s := c.inOff[i]; s < c.inOff[i+1]; s++ {
				u := int(c.inFrom[s])
				if cand := di + (ev.inTxw[s] + ri); cand < ev.dist[u] {
					ev.saveDist(u)
					ev.dist[u] = cand
					ev.setPar(u, i)
					q.Push(u, cand)
				}
			}
		}
	}

	// Propagate to fixpoint: decrease-key Dijkstra over the seeded
	// frontier, relaxing with the maintained weight components so
	// repaired values are built by the same operations as a from-scratch
	// run.
	for q.Len() > 0 {
		v, dv := q.Pop()
		if dv > ev.dist[v] {
			continue
		}
		rv := ev.rxw[v]
		for s := c.inOff[v]; s < c.inOff[v+1]; s++ {
			u := int(c.inFrom[s])
			if cand := dv + (ev.inTxw[s] + rv); cand < ev.dist[u] {
				ev.saveDist(u)
				ev.dist[u] = cand
				ev.setPar(u, v)
				q.Push(u, cand)
			}
		}
	}
	ev.stats.Repairs++
	return true
}

// seedUp re-prices strengthened post i through its cheaper out-edges,
// journaling and reparenting it when that improves its distance.
func (ev *IncrementalEvaluator) seedUp(i int) bool {
	c := ev.c
	best, bestPar := ev.dist[i], -1
	for os := c.outOff[i]; os < c.outOff[i+1]; os++ {
		to := c.outTo[os]
		if cand := ev.dist[to] + (ev.inTxw[c.outSlot[os]] + ev.rxw[to]); cand < best {
			best, bestPar = cand, int(to)
		}
	}
	if bestPar < 0 {
		return false
	}
	ev.saveDist(i)
	ev.dist[i] = best
	ev.setPar(i, bestPar)
	return true
}

// relaxWalked is repairDist's relaxation of v's in-edges at distance
// dv for treeRepair, whose walk stamped the vertices it priced with ep.
// A stamped vertex is final unless v improves it; relaxWalked then
// reports false, and the probe goes to the heap path, since the walk
// priced its subtree from a value the heap path never holds. It also
// reports false when v would improve another vertex by a weight lost to
// rounding (equal distances could then pop out of (distance, vertex)
// order). A tie at a stamped vertex goes to whichever offer the heap
// path makes first: it pops in (distance, vertex) order.
func (ev *IncrementalEvaluator) relaxWalked(v int, dv float64, ep int64) bool {
	c := ev.c
	rv := ev.rxw[v]
	for s := c.inOff[v]; s < c.inOff[v+1]; s++ {
		u := int(c.inFrom[s])
		cand := dv + (ev.inTxw[s] + rv)
		if cand > ev.dist[u] {
			continue
		}
		if ev.mark[u] == ep {
			if cand < ev.dist[u] {
				return false
			}
			if p := ev.par[u]; p != v && (dv < ev.dist[p] || dv == ev.dist[p] && v < p) {
				ev.setPar(u, v)
			}
			continue
		}
		if cand < ev.dist[u] {
			if !(cand > dv) {
				return false
			}
			ev.saveDist(u)
			ev.dist[u] = cand
			ev.setPar(u, v)
			ev.q.Push(u, cand)
		}
	}
	return true
}

// rcMarginScale sets the subtree walk's float-error margin at
// 2⁻⁴⁰·S, S the largest finite committed distance or reception weight:
// about 450× the derived worst-case rounding error 18.01·2⁻⁵³·S of a
// skipped relaxation (DESIGN.md §9).
const rcMarginScale = 0x1p-40

// buildTreeTable derives the subtree walk's table from the committed
// state in one pass over the in-edges.
func (ev *IncrementalEvaluator) buildTreeTable() {
	c := ev.c
	if ev.minRC == nil {
		ev.minRC = make([]float64, ev.n)
		ev.parSlot = make([]int32, ev.n)
	}
	var scale float64
	for v := 0; v < ev.n; v++ {
		dv, rv := ev.dist[v], ev.rxw[v]
		if dv != inf && dv > scale {
			scale = dv
		}
		if rv > scale {
			scale = rv
		}
		best := inf
		for s := c.inOff[v]; s < c.inOff[v+1]; s++ {
			u := c.inFrom[s]
			if ev.par[u] == v {
				ev.parSlot[u] = s
				continue
			}
			if rc := (dv + (ev.inTxw[s] + rv)) - ev.dist[u]; rc < best {
				best = rc
			}
		}
		ev.minRC[v] = best
	}
	ev.rcMargin = float64(scale * rcMarginScale)
	ev.treeOK = true
}

// treeRepair is the repair for a probe that strengthened post i alone
// (oldRxw is i's reception weight before the probe). Only vertices
// routing through i can improve, and each of them along its standing
// tree edge: the walk seeds i from its out-row as repairDist does, then
// prices i's committed subtree top-down with the relaxation's own
// expression, descending only into children that improved. A walked
// vertex enters the queue only when an off-tree in-edge could still
// beat a neighbour's committed distance (minRC below its improvement
// plus the margin; i also counts its reception saving); every other
// relaxation it would offer provably fails. The queue then settles as
// in repairDist (relaxWalked). When rounding makes that improve a walked
// vertex, or absorbs an edge weight, the walk is undone and the heap
// path runs instead, so dist, par, the journaled set and the cost are
// always repairDist's. It reports false, having done nothing, only when the
// committed distance of i is infinite.
func (ev *IncrementalEvaluator) treeRepair(i int, oldRxw float64) bool {
	d0 := ev.dist[i]
	if d0 == inf {
		return false
	}
	ev.q.Reset()
	ev.journal = ev.journal[:0]
	ev.seedUp(i)
	// ep stamps the walked vertices below i. i itself is final after its
	// seed: every offer the heap would make it routes through it.
	ev.epoch++
	ep := ev.epoch
	margin := ev.rcMargin
	pushI := ev.minRC[i] < (d0-ev.dist[i])+(oldRxw-ev.rxw[i])+margin
	ok := true
	stack := append(ev.chain[:0], i)
	for len(stack) > 0 && ok {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dv, rv := ev.dist[v], ev.rxw[v]
		for ch := ev.childHead[v]; ch >= 0; ch = ev.childNext[ch] {
			u := int(ch)
			cand := dv + (ev.inTxw[ev.parSlot[u]] + rv)
			du := ev.dist[u]
			if !(cand < du) {
				continue
			}
			if !(cand > dv) {
				// A weight absorbed by rounding could let the heap pop
				// u level with v; leave that order to the heap path.
				ok = false
				break
			}
			ev.saveDist(u)
			ev.dist[u] = cand
			ev.mark[u] = ep
			if ev.minRC[u] < (du-cand)+margin {
				ev.q.Push(u, cand)
			}
			stack = append(stack, u)
		}
	}
	ev.chain = stack[:0]
	if ok && pushI {
		// i's cheaper reception may reach off-tree in-neighbours:
		// relax them now, as repairDist does before its first pop.
		ok = ev.relaxWalked(i, ev.dist[i], ep)
	}
	// Settle what the walk queued, as repairDist's pop loop does.
	for ok && ev.q.Len() > 0 {
		v, dv := ev.q.Pop()
		if dv <= ev.dist[v] {
			ok = ev.relaxWalked(v, dv, ep)
		}
	}
	if !ok {
		ev.restoreJournal()
		ev.stats.TreeFallbacks++
		return ev.repairDist()
	}
	ev.stats.Repairs++
	ev.stats.TreeRepairs++
	return true
}

// collectAffected fills ev.affected with every post whose tight-parent
// chain passes through a weakened post — the union of the weakened
// posts' subtrees, walked over the maintained child lists in
// O(|affected|). Visited posts are stamped with ev.dirtyEpoch in
// ev.mark.
func (ev *IncrementalEvaluator) collectAffected() {
	ev.epoch++
	ep := ev.epoch
	ev.dirtyEpoch = ep
	ev.affected = ev.affected[:0]
	stack := ev.chain[:0]
	for _, d := range ev.downs {
		if ev.mark[d] == ep {
			continue // nested inside an earlier weakened post's subtree
		}
		ev.mark[d] = ep
		ev.affected = append(ev.affected, d)
		stack = append(stack, d)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for ch := ev.childHead[v]; ch >= 0; ch = ev.childNext[ch] {
				u := int(ch)
				if ev.mark[u] == ep {
					continue
				}
				ev.mark[u] = ep
				ev.affected = append(ev.affected, u)
				stack = append(stack, u)
			}
		}
	}
	ev.chain = stack[:0]
}

// fullRecompute snapshots the committed solution (for Revert) and runs a
// from-scratch Dijkstra under the probe's efficiencies.
func (ev *IncrementalEvaluator) fullRecompute() {
	ev.restoreJournal() // discard any partial repair first
	copy(ev.distSnap, ev.dist)
	copy(ev.parSnap, ev.par)
	ev.full = true
	ev.fullDijkstra()
	ev.stats.Fallbacks++
}

// fullDijkstra recomputes dist/par from scratch under the current
// efficiencies — the same relaxation order and arithmetic as
// CostEvaluator.dijkstra (the maintained weight components are combined
// by edgeWeight's own operation tree), plus tight-parent tracking.
func (ev *IncrementalEvaluator) fullDijkstra() {
	if ev.n+1 <= tinyVerts {
		ev.tinyDijkstra(inf)
		return
	}
	c := ev.c
	for i := range ev.dist {
		ev.dist[i] = inf
	}
	for i := range ev.par {
		ev.par[i] = -1
	}
	ev.dist[ev.bs] = 0
	q := ev.q
	q.Reset()
	q.Push(ev.bs, 0)
	for q.Len() > 0 {
		v, dv := q.Pop()
		if dv > ev.dist[v] {
			continue
		}
		rv := ev.rxw[v]
		for s := c.inOff[v]; s < c.inOff[v+1]; s++ {
			u := int(c.inFrom[s])
			if nd := dv + (ev.inTxw[s] + rv); nd < ev.dist[u] {
				ev.dist[u] = nd
				ev.par[u] = v
				q.Push(u, nd)
			}
		}
	}
	ev.rebuildChildren()
}

// tinyDijkstra re-settles every vertex under the current efficiencies
// by scan-min extraction: the unsettled minimum is found by a linear
// scan over a settled bitmask (see tinyVerts). Settle order matches the
// heap on ties (lowest vertex index first), and the relaxation is the
// same expression, so distances are bit-identical to the heap path.
//
// A finite limit arms the bounded-probe early exit: the walk maintains
// settledSum — the deployment's overhead plus the exact cost terms of
// settled posts — and rateLeft, the total report rate of unsettled
// posts. Settled distances are final and unsettled ones can only end at
// or above the frontier minimum dv, so settledSum + rateLeft*dv is a
// true lower bound on the final cost; once it reaches
// limit+boundedSlack the walk aborts and reports true, leaving dist/par
// partially rewritten (callers restore from the snapshot). limit=inf
// never prunes and prices exactly.
//
// The intrusive child lists are deliberately left stale: they exist
// only for repairDist's dirty-subtree collection, and in the tiny
// regime every probe recomputes fully, so nothing ever reads them.
func (ev *IncrementalEvaluator) tinyDijkstra(limit float64) bool {
	c := ev.c
	nv := ev.n + 1
	for i := 0; i < nv; i++ {
		ev.dist[i] = inf
	}
	for i := 0; i < ev.n; i++ {
		ev.par[i] = -1
	}
	ev.dist[ev.bs] = 0
	bounded := limit < inf
	var settledSum, rateLeft float64
	if bounded {
		settledSum = overheadCost(ev.p, ev.n, ev.eff)
		rateLeft = ev.rateTotal
	}
	var settled uint64
	for {
		v, dv := -1, inf
		for u := 0; u < nv; u++ {
			if settled&(1<<uint(u)) == 0 && ev.dist[u] < dv {
				v, dv = u, ev.dist[u]
			}
		}
		if v < 0 {
			break
		}
		if bounded {
			if settledSum+float64(rateLeft*dv) >= limit+boundedSlack {
				return true
			}
			if v < ev.n {
				r := ev.rates[v]
				settledSum += float64(r * dv)
				rateLeft -= r
			}
		}
		settled |= 1 << uint(v)
		rv := ev.rxw[v]
		for s := c.inOff[v]; s < c.inOff[v+1]; s++ {
			u := int(c.inFrom[s])
			if nd := dv + (ev.inTxw[s] + rv); nd < ev.dist[u] {
				ev.dist[u] = nd
				ev.par[u] = v
			}
		}
	}
	return false
}
