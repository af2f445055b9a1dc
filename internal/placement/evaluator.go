package placement

import (
	"errors"
	"fmt"

	"wrsn/internal/geom"
	"wrsn/internal/model"
)

var (
	errNoBase       = errors.New("placement: evaluator has no committed placement; call Cost first")
	errPendingProbe = errors.New("placement: evaluator has a pending probe; Commit or Revert it first")
	errNoProbe      = errors.New("placement: evaluator has no pending probe")
)

// costModel is the pricing arithmetic both evaluators share. Bit-exact
// agreement between them is a summation-order contract: per-post supply
// is always a full sum over sites in ascending index order (supplyOf),
// and the total cost is always a full fixed-order sum over sites then
// posts (price). The incremental evaluator never adjusts a stored supply
// by a delta — it recomputes touched posts' supplies from scratch with
// the same supplyOf — so every float it holds is one the reference
// computation would produce, and the differential and fuzz suites can
// (and do) compare with == rather than a tolerance.
type costModel struct {
	inst *Instance
	// contrib[i][j] is the power post i receives from one charger at
	// site j (zero outside the site's radius).
	contrib [][]float64
	// sitePosts[j] lists the posts site j can reach — the posts whose
	// supply a move at j touches.
	sitePosts [][]int
}

func newCostModel(inst *Instance) (*costModel, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	nPosts, nSites := len(inst.Posts), len(inst.Sites)
	c := &costModel{
		inst:      inst,
		contrib:   make([][]float64, nPosts),
		sitePosts: make([][]int, nSites),
	}
	for i, post := range inst.Posts {
		row := make([]float64, nSites)
		for j, s := range inst.Sites {
			row[j] = inst.received(j, geom.Dist(post, s.At))
			if row[j] != 0 {
				c.sitePosts[j] = append(c.sitePosts[j], i)
			}
		}
		c.contrib[i] = row
	}
	return c, nil
}

// supplyOf sums post i's received power under m, in ascending site order.
func (c *costModel) supplyOf(m []int, i int) float64 {
	row := c.contrib[i]
	supply := 0.0
	for j, mj := range m {
		if mj != 0 && row[j] != 0 {
			supply += float64(float64(mj) * row[j])
		}
	}
	return supply
}

// price totals m's objective given every post's supply: installed-charger
// costs in ascending site order, then the penalty term in ascending post
// order.
func (c *costModel) price(m []int, supply []float64) float64 {
	cost := 0.0
	for j, mj := range m {
		if mj != 0 {
			cost += float64(float64(mj) * c.inst.Sites[j].Cost)
		}
	}
	short := 0.0
	for i, d := range c.inst.Demand {
		if supply[i] < d {
			short += 1 - supply[i]/d
		}
	}
	return cost + float64(c.inst.Penalty*short)
}

// fullPrice validates m, recomputes every post's supply into supply, and
// returns the total cost — the from-scratch evaluation both evaluators
// define correctness against.
func (c *costModel) fullPrice(m []int, supply []float64) (float64, error) {
	if err := c.inst.ValidateSolution(m); err != nil {
		return 0, err
	}
	for i := range supply {
		supply[i] = c.supplyOf(m, i)
	}
	return c.price(m, supply), nil
}

// checkMoves rejects moves targeting sites outside the instance before
// either evaluator mutates any state.
func (c *costModel) checkMoves(moves []model.Move) error {
	for _, mv := range moves {
		if mv.Post < 0 || mv.Post >= len(c.inst.Sites) {
			return fmt.Errorf("placement: move targets site %d of %d", mv.Post, len(c.inst.Sites))
		}
	}
	return nil
}

// ReferenceEvaluator prices every probe from scratch — the trivially
// correct oracle IncrementalEvaluator is differentially tested against.
// It implements model.Evaluator and keeps no probe slots:
// CostDeltaCached is CostDelta and never prunes, and every lookup and
// promotion misses.
type ReferenceEvaluator struct {
	c       *costModel
	cur     []int
	pending []int
	supply  []float64
	probed  bool
	have    bool
}

// NewReferenceEvaluator returns the from-scratch oracle for inst.
func NewReferenceEvaluator(inst *Instance) (*ReferenceEvaluator, error) {
	c, err := newCostModel(inst)
	if err != nil {
		return nil, err
	}
	return &ReferenceEvaluator{
		c:       c,
		cur:     make([]int, len(inst.Sites)),
		pending: make([]int, len(inst.Sites)),
		supply:  make([]float64, len(inst.Posts)),
	}, nil
}

// Cost fully evaluates m and makes it the committed placement.
func (r *ReferenceEvaluator) Cost(m []int) (float64, error) {
	if r.probed {
		return 0, errPendingProbe
	}
	cost, err := r.c.fullPrice(m, r.supply)
	if err != nil {
		return 0, err
	}
	copy(r.cur, m)
	r.have = true
	return cost, nil
}

// CostDelta prices the committed placement with moves applied.
func (r *ReferenceEvaluator) CostDelta(moves []model.Move) (float64, error) {
	if !r.have {
		return 0, errNoBase
	}
	if r.probed {
		return 0, errPendingProbe
	}
	if err := r.c.checkMoves(moves); err != nil {
		return 0, err
	}
	copy(r.pending, r.cur)
	for _, mv := range moves {
		r.pending[mv.Post] += mv.Delta
	}
	cost, err := r.c.fullPrice(r.pending, r.supply)
	if err != nil {
		return 0, err
	}
	r.probed = true
	return cost, nil
}

// Commit accepts the last probe as the committed placement.
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
func (r *ReferenceEvaluator) CostDeltaCached(_ int, moves []model.Move, _ float64) (float64, bool, error) {
	cost, err := r.CostDelta(moves)
	return cost, false, err
}

// CachedCostBounded always misses.
func (r *ReferenceEvaluator) CachedCostBounded(int, float64) (float64, bool, bool) {
	return 0, false, false
}

// CommitCached always misses, leaving the evaluator untouched.
func (r *ReferenceEvaluator) CommitCached(int) (float64, bool) { return 0, false }

// supplyUndo restores one post's supply on Revert.
type supplyUndo struct {
	post int
	old  float64
}

// IncrementalEvaluator is the production model.Evaluator for placement
// instances. It keeps the committed placement's per-post supplies and,
// per probe, recomputes only the posts the moved sites can reach —
// O(touched*S + S + P) against the oracle's O(P*S) — while staying
// bit-identical to it (see costModel).
type IncrementalEvaluator struct {
	c      *costModel
	cur    []int
	supply []float64
	have   bool
	probed bool
	// Probe state: the inverse moves restoring cur, the touched posts'
	// prior supplies, and a stamp array marking posts already recorded.
	undoMoves  []model.Move
	undoSupply []supplyUndo
	seen       []int
	stamp      int
	probes     int64
	// Probe-cache state (see probecache.go); nil until EnableProbeCache.
	slots         []probeSlot
	slotWords     int
	dirtyMask     []uint64
	savedSupply   []float64
	cacheHits     int64
	cachePromotes int64
}

// NewIncrementalEvaluator returns the production evaluator for inst.
func NewIncrementalEvaluator(inst *Instance) (*IncrementalEvaluator, error) {
	c, err := newCostModel(inst)
	if err != nil {
		return nil, err
	}
	return &IncrementalEvaluator{
		c:      c,
		cur:    make([]int, len(inst.Sites)),
		supply: make([]float64, len(inst.Posts)),
		seen:   make([]int, len(inst.Posts)),
	}, nil
}

// Cost fully evaluates m and makes it the committed placement.
func (e *IncrementalEvaluator) Cost(m []int) (float64, error) {
	if e.probed {
		return 0, errPendingProbe
	}
	cost, err := e.c.fullPrice(m, e.supply)
	if err != nil {
		return 0, err
	}
	copy(e.cur, m)
	e.have = true
	e.invalidateAllSlots()
	return cost, nil
}

// CostDelta prices the committed placement with moves applied, leaving
// the evaluator pending until Commit or Revert. An invalid probe (bounds
// violation) returns the validation error with the committed state fully
// restored.
func (e *IncrementalEvaluator) CostDelta(moves []model.Move) (float64, error) {
	if !e.have {
		return 0, errNoBase
	}
	if e.probed {
		return 0, errPendingProbe
	}
	if err := e.c.checkMoves(moves); err != nil {
		return 0, err
	}

	// Apply the moves in place, remembering how to undo them.
	e.undoMoves = e.undoMoves[:0]
	for _, mv := range moves {
		if mv.Delta == 0 {
			continue
		}
		e.cur[mv.Post] += mv.Delta
		e.undoMoves = append(e.undoMoves, model.Move{Post: mv.Post, Delta: -mv.Delta})
	}
	if err := e.c.inst.ValidateSolution(e.cur); err != nil {
		e.rollback()
		return 0, err
	}

	// Recompute the touched posts' supplies from scratch — never adjust
	// by a delta; see costModel for why.
	e.stamp++
	e.undoSupply = e.undoSupply[:0]
	for _, mv := range moves {
		if mv.Delta == 0 {
			continue
		}
		for _, i := range e.c.sitePosts[mv.Post] {
			if e.seen[i] != e.stamp {
				e.seen[i] = e.stamp
				e.undoSupply = append(e.undoSupply, supplyUndo{post: i, old: e.supply[i]})
				e.supply[i] = e.c.supplyOf(e.cur, i)
			}
		}
	}
	e.probed = true
	e.probes++
	return e.c.price(e.cur, e.supply), nil
}

// rollback restores the committed vector and supplies after a failed or
// reverted probe.
func (e *IncrementalEvaluator) rollback() {
	for k := len(e.undoMoves) - 1; k >= 0; k-- {
		e.cur[e.undoMoves[k].Post] += e.undoMoves[k].Delta
	}
	for _, u := range e.undoSupply {
		e.supply[u.post] = u.old
	}
	e.undoMoves = e.undoMoves[:0]
	e.undoSupply = e.undoSupply[:0]
}

// Commit accepts the last probe as the committed placement.
func (e *IncrementalEvaluator) Commit() error {
	if !e.probed {
		return errNoProbe
	}
	e.invalidateForCommit()
	e.undoMoves = e.undoMoves[:0]
	e.undoSupply = e.undoSupply[:0]
	e.probed = false
	return nil
}

// Revert discards the last probe and restores the committed placement.
func (e *IncrementalEvaluator) Revert() error {
	if !e.probed {
		return errNoProbe
	}
	e.rollback()
	e.probed = false
	return nil
}

// Probes reports how many delta probes the evaluator has priced.
func (e *IncrementalEvaluator) Probes() int64 { return e.probes }

// NewEvaluator returns the production incremental evaluator for inst.
func (inst *Instance) NewEvaluator() (model.Evaluator, error) {
	return NewIncrementalEvaluator(inst)
}

// NewReferenceEvaluator returns the from-scratch oracle for inst.
func (inst *Instance) NewReferenceEvaluator() (model.Evaluator, error) {
	return NewReferenceEvaluator(inst)
}
