package placement

import "wrsn/internal/model"

// Probe cache: the placement analogue of the routing evaluator's
// dirty-candidate pruning (see internal/model/probecache.go for the
// scheme). A placement probe writes its moved sites' counts and the
// touched posts' recomputed supplies; its read set is those posts'
// *full* contributing-site columns (supplyOf sums every site reaching
// the post). Slots therefore carry a write mask over a combined bit
// space — site j at bit j, post i at bit S+i — and a commit dirties its
// moved sites plus every post those sites reach, invalidating exactly
// the slots whose cached supplies (or feasibility: per-site bounds only
// depend on the slot's own moved sites) could have drifted. While a
// slot stays active, a fresh re-probe would sum the identical terms in
// the identical order, so CachedCost is bit-identical to re-probing and
// CommitCached promotes the snapshot straight to the committed state.
type probeSlot struct {
	active   bool
	moves    []model.Move
	supplies []supplyUndo
	mask     []uint64
}

// EnableProbeCache sizes the candidate cache at `slots` slot ids;
// <= 0 disables it.
func (e *IncrementalEvaluator) EnableProbeCache(slots int) {
	if slots <= 0 {
		e.slots = nil
		return
	}
	e.slots = make([]probeSlot, slots)
	e.slotWords = (len(e.c.inst.Sites) + len(e.c.inst.Posts) + 63) / 64
	if len(e.dirtyMask) < e.slotWords {
		e.dirtyMask = make([]uint64, e.slotWords)
	}
}

// CacheProbe snapshots the pending probe under slot id: the forward
// moves, the touched posts' recomputed supplies, and the write mask.
func (e *IncrementalEvaluator) CacheProbe(id int) {
	if e.slots == nil || id < 0 || id >= len(e.slots) {
		return
	}
	s := &e.slots[id]
	s.active = false
	if !e.probed {
		return
	}
	if len(s.mask) < e.slotWords {
		s.mask = make([]uint64, e.slotWords)
	}
	for i := range s.mask {
		s.mask[i] = 0
	}
	nSites := len(e.c.inst.Sites)
	s.moves = s.moves[:0]
	for _, u := range e.undoMoves {
		j := u.Post
		s.moves = append(s.moves, model.Move{Post: j, Delta: -u.Delta})
		s.mask[j>>6] |= 1 << uint(j&63)
	}
	s.supplies = s.supplies[:0]
	for _, u := range e.undoSupply {
		b := nSites + u.post
		s.supplies = append(s.supplies, supplyUndo{post: u.post, old: e.supply[u.post]})
		s.mask[b>>6] |= 1 << uint(b&63)
	}
	s.active = true
}

// CachedCost re-prices slot id against the committed state: apply the
// snapshot's moves and supplies, run the same fixed-order price a fresh
// probe would finish with, and restore. ok=false means the slot was
// invalidated (or never cached) and the candidate must be re-probed.
func (e *IncrementalEvaluator) CachedCost(id int) (float64, bool) {
	if e.slots == nil || id < 0 || id >= len(e.slots) || !e.have || e.probed {
		return 0, false
	}
	s := &e.slots[id]
	if !s.active {
		return 0, false
	}
	for _, mv := range s.moves {
		e.cur[mv.Post] += mv.Delta
	}
	if cap(e.savedSupply) < len(s.supplies) {
		e.savedSupply = make([]float64, len(s.supplies)+16)
	}
	saved := e.savedSupply[:len(s.supplies)]
	for k := range s.supplies {
		u := &s.supplies[k]
		saved[k] = e.supply[u.post]
		e.supply[u.post] = u.old
	}
	cost := e.c.price(e.cur, e.supply)
	for k := range s.supplies {
		e.supply[s.supplies[k].post] = saved[k]
	}
	for _, mv := range s.moves {
		e.cur[mv.Post] -= mv.Delta
	}
	e.cacheHits++
	return cost, true
}

// CostDeltaCached is CostDelta followed by CacheProbe(id), the
// model.Evaluator slot probe. Placement prices exactly and never prunes: a probe
// re-prices the touched posts' supplies into a full price sum, with no
// patch-local bound to stop early on.
func (e *IncrementalEvaluator) CostDeltaCached(id int, moves []model.Move, _ float64) (float64, bool, error) {
	cost, err := e.CostDelta(moves)
	if err != nil {
		return 0, false, err
	}
	e.CacheProbe(id)
	return cost, false, nil
}

// CachedCostBounded is CachedCost as the model.Evaluator slot lookup;
// it never prunes.
func (e *IncrementalEvaluator) CachedCostBounded(id int, _ float64) (float64, bool, bool) {
	cost, ok := e.CachedCost(id)
	return cost, false, ok
}

// CommitCached promotes slot id's cached probe straight to the
// committed placement: counts and supplies are written from the
// snapshot, intersecting slots invalidated. ok=false leaves the
// evaluator untouched (callers fall back to CostDelta+Commit).
func (e *IncrementalEvaluator) CommitCached(id int) (float64, bool) {
	if e.slots == nil || id < 0 || id >= len(e.slots) || !e.have || e.probed {
		return 0, false
	}
	s := &e.slots[id]
	if !s.active {
		return 0, false
	}
	dirty := e.dirtyMask
	for i := range dirty {
		dirty[i] = 0
	}
	nSites := len(e.c.inst.Sites)
	for _, mv := range s.moves {
		e.cur[mv.Post] += mv.Delta
		e.markSiteDirty(dirty, mv.Post, nSites)
	}
	for k := range s.supplies {
		u := &s.supplies[k]
		e.supply[u.post] = u.old
	}
	cost := e.c.price(e.cur, e.supply)
	e.cachePromotes++
	e.invalidateSlots(dirty)
	return cost, true
}

// markSiteDirty dirties site j's count bit and the supply bits of every
// post the site reaches.
func (e *IncrementalEvaluator) markSiteDirty(dirty []uint64, j, nSites int) {
	dirty[j>>6] |= 1 << uint(j&63)
	for _, i := range e.c.sitePosts[j] {
		b := nSites + i
		dirty[b>>6] |= 1 << uint(b&63)
	}
}

// invalidateForCommit deactivates every slot whose write mask
// intersects the pending commit's dirty set (its moved sites and every
// post they reach). Called from Commit while the undo logs are live.
func (e *IncrementalEvaluator) invalidateForCommit() {
	if e.slots == nil || len(e.undoMoves) == 0 {
		return
	}
	dirty := e.dirtyMask
	for i := range dirty {
		dirty[i] = 0
	}
	nSites := len(e.c.inst.Sites)
	for _, u := range e.undoMoves {
		e.markSiteDirty(dirty, u.Post, nSites)
	}
	e.invalidateSlots(dirty)
}

func (e *IncrementalEvaluator) invalidateSlots(dirty []uint64) {
	for si := range e.slots {
		s := &e.slots[si]
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

func (e *IncrementalEvaluator) invalidateAllSlots() {
	for si := range e.slots {
		e.slots[si].active = false
	}
}

// CacheHits reports how many cached re-pricings the evaluator served.
func (e *IncrementalEvaluator) CacheHits() int64 { return e.cacheHits }

// CachePromotes reports how many cached probes were promoted straight
// to the committed placement.
func (e *IncrementalEvaluator) CachePromotes() int64 { return e.cachePromotes }

// PruneUnitAdd never rejects: placement has no committed tree to bound
// a candidate from, so every candidate is probed.
func (e *IncrementalEvaluator) PruneUnitAdd(int, float64) bool { return false }

// PruneUnitAdd never rejects: the oracle prices every candidate.
func (r *ReferenceEvaluator) PruneUnitAdd(int, float64) bool { return false }
