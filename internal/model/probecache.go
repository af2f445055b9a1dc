package model

// Probe cache: dirty-candidate pruning for solvers that re-scan a fixed
// candidate set between commits (IDB's δ=1 rounds, local-search sweeps).
//
// Such solvers probe the same single-dimension candidates round after
// round, yet each committed move only perturbs a local region of the
// shortest-path solution — candidates far from the commit would repair
// to exactly the same patch again. The cache makes that reuse sound and
// bit-exact:
//
//   - CacheProbe(id), called while a probe is pending, snapshots the
//     probe's write patch (the journaled vertices' repaired dist/par
//     values and the changed posts' deployment records) and a write
//     mask with one bit per written or moved post. The probe's *read*
//     set is the closed in/out neighbourhood of those writes —
//     relaxations of a settled vertex read its in-neighbours' weights
//     and distances, and boundary reseeding reads out-neighbours — so
//     the first point at which a re-run could diverge from the cached
//     run is necessarily a neighbour of a write.
//   - Commit (and CommitCached) builds the commit's dirty set — posts
//     whose distance value actually changed, plus posts whose count
//     moved — expanded by that same closed neighbourhood, and
//     deactivates every slot whose write mask intersects it. Expanding
//     the dirty side instead of the cached side tests the identical
//     intersection (the closed-neighbourhood relation is symmetric: the
//     CSR in/out lists are exact reverses) but walks adjacency once per
//     commit instead of once per cached probe, keeping CacheProbe
//     O(|patch|). A full-recompute commit deactivates everything.
//   - CachedCost(id), for a still-active slot, lays the patch over the
//     committed distances and runs the same fixed-order totalCost sum a
//     fresh probe would finish with, then unpatches. Because no masked
//     vertex changed since the snapshot, a fresh probe would write
//     exactly the patch again (it reads only unchanged values), so the
//     returned float is bit-identical to re-probing — the differential
//     suite pins this. Costs still shift between rounds as the base
//     moves under the unmasked vertices; only the repair is skipped.
//   - Bounded pricing. CostDeltaCached (a fresh probe plus its
//     snapshot) and CachedCostBounded (a cached re-price) take the
//     caller's limit: the committed cost minus the patch's delta,
//     Σ rates[v]·(committed[v] − new[v]) over its distinct vertices,
//     less a float-error margin (patchBound), is a rigorous lower bound
//     on the candidate's exact cost. When it reaches limit+boundedSlack
//     the answer is pruned=true in O(|patch|) and the O(N) fold is
//     skipped; otherwise the fold runs as above, so every returned cost
//     is still bit-identical. A pruned fresh probe keeps its snapshot.
//   - CommitCached(id) promotes a still-active slot straight to the
//     committed state — the probe-promoting commit: the winner of a
//     round was already repaired once during the scan, and replaying
//     its patch forward is O(|patch|) instead of a second repair.
//
// The cache is disabled when the problem prices a deployment-wide
// overhead term: CachedCost reads no efficiencies, which is only exact
// when totalCost doesn't either (nor is the patch bound).
type probeSlot struct {
	active bool
	patch  []distPatch
	effs   []effSave
	mask   []uint64
}

// distPatch records one repaired vertex's post-probe state.
type distPatch struct {
	v    int32
	par  int32
	dist float64
}

// EnableProbeCache sizes the candidate cache at `slots` slot ids (one
// per candidate the solver scans); <= 0 disables it. No-op (cache stays
// disabled) when the problem has an overhead term — see the package
// comment above for why cached re-pricing would not be exact there.
func (ev *IncrementalEvaluator) EnableProbeCache(slots int) {
	if slots <= 0 || ev.p.HasOverhead() {
		ev.slots = nil
		return
	}
	ev.slots = make([]probeSlot, slots)
	ev.slotWords = (ev.n + 63) / 64
	if len(ev.dirtyMask) < ev.slotWords {
		ev.dirtyMask = make([]uint64, ev.slotWords)
	}
}

// maskNbhd sets v's bit and those of its closed in/out neighbourhood
// (the BS carries no bit: its distance is pinned at 0 and it has no
// deployment state).
func (ev *IncrementalEvaluator) maskNbhd(mask []uint64, v int) {
	c := ev.c
	mask[v>>6] |= 1 << uint(v&63)
	for s := c.inOff[v]; s < c.inOff[v+1]; s++ {
		if u := int(c.inFrom[s]); u < ev.n {
			mask[u>>6] |= 1 << uint(u&63)
		}
	}
	for os := c.outOff[v]; os < c.outOff[v+1]; os++ {
		if u := int(c.outTo[os]); u < ev.n {
			mask[u>>6] |= 1 << uint(u&63)
		}
	}
}

// CacheProbe snapshots the pending probe under slot id. Must be called
// after CostDelta and before the Revert/Commit that resolves it; the
// probe itself is unaffected. Probes that recomputed fully (no
// journaled patch) just clear the slot.
func (ev *IncrementalEvaluator) CacheProbe(id int) {
	if ev.slots == nil || id < 0 || id >= len(ev.slots) {
		return
	}
	if ev.state != stateProbed || ev.full {
		ev.slots[id].active = false
		return
	}
	ev.snapshotPatch(id)
}

// CostDeltaCached prices the committed deployment with moves applied
// and snapshots the repair under slot id, as CostDelta followed by
// CacheProbe would, but answers "cost, or provably >= limit": a
// journaled repair's exact cost is the committed cost minus its patch
// delta, so when patchBound proves it at or above limit+boundedSlack
// the probe is reverted without the O(N) totalCost fold and
// pruned=true returns with the evaluator idle (the Evaluator
// contract). The slot keeps the snapshot either way, so the next round
// re-prices the candidate from the cache instead of re-repairing it.
// Unpruned, the probe is pending and its cost is bit-identical to
// CostDelta's. limit=+Inf prices exactly. The scan-min regime
// (n+1 <= tinyVerts) uses CostDeltaBounded's partial-settle exit; a
// problem with an overhead term (the cache is disabled, and the patch
// says nothing about the overhead) and a full-recompute fallback price
// exactly.
func (ev *IncrementalEvaluator) CostDeltaCached(id int, moves []Move, limit float64) (float64, bool, error) {
	if ev.n+1 <= tinyVerts || ev.p.HasOverhead() {
		cost, pruned, err := ev.costDeltaLimited(moves, limit)
		if err == nil {
			ev.CacheProbe(id) // clears the slot unless a journaled probe is pending
		}
		return cost, pruned, err
	}
	if err := ev.applyMoves(moves); err != nil {
		return 0, false, err
	}
	ev.repair()
	if ev.full {
		ev.CacheProbe(id) // clears the slot: a full recompute has no patch
		return ev.pricePending()
	}
	delta, mass := ev.snapshotPatch(id)
	if limit < inf && ev.patchBound(delta, mass) >= limit+boundedSlack {
		ev.revertProbe()
		ev.stats.PricePrunes++
		return 0, true, nil
	}
	return ev.pricePending()
}

// snapshotPatch walks the pending journaled probe's first-seen journal
// entry per written vertex — which holds the vertex's committed value —
// and records the patch under slot id when the cache holds that slot.
// It returns the patch delta Σ rates[v]·(committed[v] − new[v]) and
// mass Σ rates[v]·(committed[v] + new[v]) for patchBound.
func (ev *IncrementalEvaluator) snapshotPatch(id int) (delta, mass float64) {
	var s *probeSlot
	if ev.slots != nil && id >= 0 && id < len(ev.slots) {
		s = &ev.slots[id]
		if len(s.mask) < ev.slotWords {
			s.mask = make([]uint64, ev.slotWords)
		}
		for i := range s.mask {
			s.mask[i] = 0
		}
		s.patch = s.patch[:0]
		s.effs = append(s.effs[:0], ev.effLog...)
	}
	ev.epoch++
	ep := ev.epoch
	for _, j := range ev.journal {
		v := int(j.v)
		if ev.mark[v] == ep {
			continue
		}
		ev.mark[v] = ep
		old, cur, r := j.dist, ev.dist[v], ev.rates[v]
		delta += float64(r * (old - cur))
		mass += float64(r * (old + cur))
		if s != nil {
			s.patch = append(s.patch, distPatch{v: j.v, par: int32(ev.par[v]), dist: cur})
			s.mask[v>>6] |= 1 << uint(v&63)
		}
	}
	if s != nil {
		for i := range s.effs {
			p := s.effs[i].post
			s.mask[p>>6] |= 1 << uint(p&63)
		}
		s.active = true
	}
	return delta, mass
}

// patchMarginScale sets patchBound's float-error margin at
// (n+2)·2⁻⁴⁰·(C0 + mass), about 4096× the derived worst-case error
// 2.0001·(n+2)·2⁻⁵³·(C0 + mass) of both folds and the bound's own
// arithmetic (DESIGN.md §9).
const patchMarginScale = 0x1p-40

// patchBound turns a patch's delta and mass into a rigorous lower bound
// on the exact cost of the committed distances with the patch laid
// over them: the committed cost C0 minus the delta, less a margin that
// covers every rounding in both totalCost folds and in the delta sum.
// Valid only without an overhead term (C0 is then the fold of the
// committed distances alone). A NaN or infinite input yields NaN or
// -Inf, which never prunes.
func (ev *IncrementalEvaluator) patchBound(delta, mass float64) float64 {
	return (ev.cost - delta) - float64(float64(ev.n+2)*patchMarginScale*(ev.cost+mass))
}

// activeSlot returns slot id when it can answer against the idle
// committed state, nil otherwise.
func (ev *IncrementalEvaluator) activeSlot(id int) *probeSlot {
	if ev.slots == nil || id < 0 || id >= len(ev.slots) || !ev.have || ev.state != stateIdle {
		return nil
	}
	if s := &ev.slots[id]; s.active {
		return s
	}
	return nil
}

// CachedCost re-prices slot id against the current committed state:
// patch, fixed-order totalCost, unpatch. ok=false means the slot was
// invalidated by an intersecting commit (or never cached) and the
// candidate must be re-probed.
func (ev *IncrementalEvaluator) CachedCost(id int) (float64, bool) {
	cost, _, ok := ev.CachedCostBounded(id, inf)
	return cost, ok
}

// CachedCostBounded is CachedCost answering "cost, or provably >=
// limit": when the slot's patch bound (patchBound over the committed
// distances it would replace) reaches limit+boundedSlack it returns
// pruned=true in O(|patch|), skipping the O(N) fold. An unpruned cost
// is bit-identical to CachedCost's; limit=+Inf prices exactly.
func (ev *IncrementalEvaluator) CachedCostBounded(id int, limit float64) (cost float64, pruned, ok bool) {
	s := ev.activeSlot(id)
	if s == nil {
		return 0, false, false
	}
	if limit < inf {
		var delta, mass float64
		for k := range s.patch {
			p := &s.patch[k]
			old, r := ev.dist[p.v], ev.rates[p.v]
			delta += float64(r * (old - p.dist))
			mass += float64(r * (old + p.dist))
		}
		if ev.patchBound(delta, mass) >= limit+boundedSlack {
			ev.stats.CacheHits++
			ev.stats.PricePrunes++
			return 0, true, true
		}
	}
	if cap(ev.patchSaved) < len(s.patch) {
		ev.patchSaved = make([]float64, len(s.patch)+16)
	}
	saved := ev.patchSaved[:len(s.patch)]
	for k := range s.patch {
		p := &s.patch[k]
		saved[k] = ev.dist[p.v]
		ev.dist[p.v] = p.dist
	}
	cost, err := totalCost(ev.p, ev.n, ev.dist, ev.eff, ev.rates)
	for k := range s.patch {
		ev.dist[s.patch[k].v] = saved[k]
	}
	if err != nil {
		return 0, false, false
	}
	ev.stats.CacheHits++
	return cost, false, true
}

// CommitCached promotes slot id's cached probe straight to the
// committed deployment without re-running the repair: the patch is
// replayed forward in O(|patch|) and the result priced by the same
// fixed-order sum a fresh probe-and-commit would produce. ok=false
// leaves the evaluator untouched (callers fall back to
// CostDelta+Commit).
func (ev *IncrementalEvaluator) CommitCached(id int) (float64, bool) {
	s := ev.activeSlot(id)
	if s == nil {
		return 0, false
	}
	for i := range s.effs {
		if ev.m[s.effs[i].post] != s.effs[i].oldM {
			return 0, false // base drifted; invalidation should have caught this
		}
	}
	dirty := ev.dirtyMask
	for i := range dirty {
		dirty[i] = 0
	}
	for i := range s.effs {
		rec := &s.effs[i]
		ev.m[rec.post] = rec.newM
		if rec.newEff != rec.oldEff {
			ev.eff[rec.post] = rec.newEff
			ev.reweightPost(rec.post)
		}
		if rec.newM != rec.oldM || rec.newEff != rec.oldEff {
			ev.maskNbhd(dirty, rec.post)
		}
	}
	for k := range s.patch {
		p := &s.patch[k]
		v := int(p.v)
		if ev.dist[v] != p.dist {
			ev.maskNbhd(dirty, v)
			ev.dist[v] = p.dist
		}
		ev.setPar(v, int(p.par))
	}
	cost, err := totalCost(ev.p, ev.n, ev.dist, ev.eff, ev.rates)
	if err != nil {
		ev.have = false
		return 0, false
	}
	ev.cost = cost
	ev.treeOK = false
	ev.stats.CachePromotes++
	ev.invalidateSlots(dirty)
	return cost, true
}

// invalidateForCommit deactivates every slot whose write mask
// intersects the pending commit's neighbourhood-expanded dirty set.
// Called from Commit while the probe's journal and effLog are still
// live.
func (ev *IncrementalEvaluator) invalidateForCommit() {
	if ev.slots == nil {
		return
	}
	if ev.full {
		ev.invalidateAllSlots()
		return
	}
	dirty := ev.dirtyMask
	for i := range dirty {
		dirty[i] = 0
	}
	any := false
	ev.epoch++
	ep := ev.epoch
	for _, j := range ev.journal {
		v := int(j.v)
		if ev.mark[v] == ep {
			continue
		}
		ev.mark[v] = ep
		// The first-seen journal entry per vertex holds the pre-probe
		// value; dist currently holds the probed (about to be committed)
		// one.
		if ev.dist[v] != j.dist {
			ev.maskNbhd(dirty, v)
			any = true
		}
	}
	for i := range ev.effLog {
		rec := &ev.effLog[i]
		// Count changes invalidate even when the efficiency plateaued: a
		// cached probe at this post snapshotted a different count
		// transition.
		if rec.newM != rec.oldM || rec.newEff != rec.oldEff {
			ev.maskNbhd(dirty, rec.post)
			any = true
		}
	}
	if any {
		ev.invalidateSlots(dirty)
	}
}

func (ev *IncrementalEvaluator) invalidateSlots(dirty []uint64) {
	for si := range ev.slots {
		s := &ev.slots[si]
		if !s.active {
			continue
		}
		for w, d := range dirty {
			if s.mask[w]&d != 0 {
				s.active = false
				break
			}
		}
	}
}

func (ev *IncrementalEvaluator) invalidateAllSlots() {
	for si := range ev.slots {
		ev.slots[si].active = false
	}
}
