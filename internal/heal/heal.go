// Package heal rebuilds routing trees over the surviving posts of a
// degraded network. It reuses the RFH Phase I-III machinery
// (recharging-cost shortest paths, workload-concentrating trim, sibling
// merge) on the survivor subgraph, pricing charging efficiency at the
// surviving node counts. The simulator's online repair policy calls
// RepairTree (or a persistent Healer) whenever a post's last node dies.
//
// It sits above internal/model (problem/tree primitives, degraded
// evaluation) and internal/routing (the tree-building phases), which is
// why it is its own package: model cannot import routing without a cycle.
//
// Repair deliberately does not use the move-based model.Evaluator
// protocol the solvers run on: a post death removes vertices and edges
// from the communication graph, whereas CostDelta moves only reprice
// edges of a fixed topology. A Healer instead keeps the *full*
// communication graph built once and masks dead vertices out of the
// shortest-path run, reweighting edges in place at the surviving
// strengths — one masked Dijkstra per repair yields both survivor
// reachability and the repair fat tree, with no per-repair graph
// construction and no steady-state allocations.
package heal

import (
	"fmt"

	"wrsn/internal/geom"
	"wrsn/internal/graph"
	"wrsn/internal/model"
	"wrsn/internal/routing"
)

// Options tunes tree repair.
type Options struct {
	// DisableSiblingMerge skips the Phase III sibling merge on the
	// rebuilt survivor tree: the ablation knob.
	DisableSiblingMerge bool
}

// Healer repairs routing trees for one Problem repeatedly, amortising
// all graph machinery across repairs: the communication graph and its
// cached hop energies are built once at construction, and each Repair
// masks the dead posts, reweights edges in place and reuses the Dijkstra
// heap, DAG and trim buffers. A Healer is not safe for concurrent use.
type Healer struct {
	p    *model.Problem
	opts Options
	bs   int

	cg      *model.CommGraph
	router  *graph.Router
	trimmer *routing.Trimmer
	trimRes routing.TrimResult
	merger  routing.Merger
	spec    routing.MergeSpec

	wf   model.WeightFunc // recharge-cost weights over eff/mask, bound once
	eff  []float64        // per-post charging efficiency at current alive counts
	mask []bool           // true = dead (masked out of routing)
	skip []bool           // true = not routable (dead or stranded)

	stranded []int
	merged   []int
	treeA    model.Tree // candidate buffers for the merge price-off
	treeB    model.Tree
	degraded model.DegradedScratch // the price-off's evaluation buffers
	state    []int8                // validation scratch
	chain    []int
}

// NewHealer builds a Healer for p. Construction enumerates p's
// communication topology once (model.NewCommGraph); each Repair only
// reweights its graph and reads the merge's hop energies from it.
func NewHealer(p *model.Problem, opts Options) (*Healer, error) {
	cg, err := model.NewCommGraph(p)
	if err != nil {
		return nil, fmt.Errorf("heal: %w", err)
	}
	n := p.N()
	h := &Healer{
		p:       p,
		opts:    opts,
		bs:      p.BSIndex(),
		cg:      cg,
		router:  graph.NewRouter(cg.Graph()),
		trimmer: routing.NewTrimmer(n),
		eff:     make([]float64, n),
		mask:    make([]bool, n+1),
		skip:    make([]bool, n),
		state:   make([]int8, n),
		chain:   make([]int, 0, n),
	}
	rx := p.Energy.RxEnergy()
	h.wf = func(from, to int, tx float64) float64 {
		// Edges touching masked (dead) posts are excluded from routing
		// anyway; any finite weight keeps the reweight pass happy.
		if h.mask[from] || (to != h.bs && h.mask[to]) {
			return 0
		}
		w := tx / h.eff[from]
		if to != h.bs {
			w += rx / h.eff[to]
		}
		return w
	}
	if err := h.router.SetVertexMask(h.mask); err != nil {
		return nil, err
	}
	h.spec = routing.MergeSpec{
		NPosts:          n,
		TxEnergyBetween: cg.TxBetween,
		Skip:            h.skip,
	}
	return h, nil
}

// Repair rebuilds the routing tree after post deaths, writing the result
// into dst (resized as needed; dst may alias neither old nor the
// problem). Posts with aliveCounts[i] == 0 are dead, and every surviving
// post is re-parented by re-running the RFH routing phases
// (recharging-cost shortest paths, Phase II trim, optional Phase III
// merge) over the survivor subgraph, with per-post charging efficiency
// priced at the surviving node counts. Dead posts keep their old parent
// and level (they originate nothing, so the edges are inert). Survivors
// that cannot reach the base station through other survivors at maximum
// range are stranded: they also keep their old edges and are returned in
// ascending order. The returned slice is owned by the Healer and valid
// until the next Repair.
//
// The result satisfies model.Tree.ValidateSurvivors for every
// non-stranded survivor. old must be a valid tree for the problem.
func (h *Healer) Repair(old model.Tree, aliveCounts []int, dst *model.Tree) ([]int, error) {
	p, n := h.p, h.p.N()
	if len(aliveCounts) != n {
		return nil, fmt.Errorf("heal: %d alive counts for %d posts", len(aliveCounts), n)
	}
	if len(old.Parent) != n || len(old.Level) != n {
		return nil, fmt.Errorf("heal: old tree sized for %d/%d posts, want %d", len(old.Parent), len(old.Level), n)
	}
	for i, m := range aliveCounts {
		if m < 0 {
			return nil, fmt.Errorf("heal: post %d has negative alive count %d", i, m)
		}
		h.mask[i] = m == 0
		if m > 0 {
			e, err := p.Charging.NetworkEfficiency(m)
			if err != nil {
				return nil, fmt.Errorf("heal: post %d: %w", i, err)
			}
			h.eff[i] = e
		}
	}

	// One masked shortest-path run at the surviving strengths yields both
	// survivor reachability (finite distance; the edge set is independent
	// of weights, so weighted reachability == max-range reachability) and
	// the repair fat tree.
	if err := h.cg.Reweight(h.wf); err != nil {
		return nil, err
	}
	dag, err := h.router.DAGTo(h.bs, model.DAGTolerance)
	if err != nil {
		return nil, err
	}

	// Stranded survivors have no multi-hop path to the BS through other
	// survivors even at maximum range; exclude them from the rebuild
	// (removing them cannot strand anyone else: a post routing through a
	// stranded post would itself have a path, a contradiction).
	h.stranded = h.stranded[:0]
	routable := 0
	for i := 0; i < n; i++ {
		reach := dag.Reachable(i)
		h.skip[i] = h.mask[i] || !reach
		if !h.mask[i] && !reach {
			h.stranded = append(h.stranded, i)
		}
		if !h.skip[i] {
			routable++
		}
	}

	h.copyTree(dst, old)
	if routable == 0 {
		return h.strandedOrNil(), nil // nothing left to route
	}

	if err := h.trimmer.Trim(dag, nil, h.skip, &h.trimRes); err != nil {
		return nil, err
	}
	parents := h.trimRes.Parent
	if !h.opts.DisableSiblingMerge {
		h.merged = append(h.merged[:0], parents...)
		stats, err := h.merger.Merge(h.spec, h.merged)
		if err != nil {
			return nil, err
		}
		if stats.Reparented > 0 {
			// Keep the merge only when it is actually cheaper at the
			// surviving strengths (deployment is fixed during repair, so
			// the trade-off the solver resolves by redeploying must be
			// priced directly).
			if better, err := h.cheaperSurvivorTree(old, aliveCounts, parents, h.merged); err != nil {
				return nil, err
			} else if better {
				parents = h.merged
			}
		}
	}

	if err := h.applyParents(dst, parents); err != nil {
		return nil, err
	}
	if err := h.validateRepaired(dst); err != nil {
		return nil, fmt.Errorf("heal: repaired tree invalid: %w", err)
	}
	return h.strandedOrNil(), nil
}

func (h *Healer) strandedOrNil() []int {
	if len(h.stranded) == 0 {
		return nil
	}
	return h.stranded
}

// copyTree overwrites dst with src, reusing dst's slices when possible.
func (h *Healer) copyTree(dst *model.Tree, src model.Tree) {
	n := len(src.Parent)
	if cap(dst.Parent) < n {
		dst.Parent = make([]int, n)
	}
	if cap(dst.Level) < n {
		dst.Level = make([]int, n)
	}
	dst.Parent = dst.Parent[:n]
	dst.Level = dst.Level[:n]
	copy(dst.Parent, src.Parent)
	copy(dst.Level, src.Level)
}

// applyParents writes the chosen routable-post parents (full-graph
// indices, BS = N) into dst, assigning each edge its minimal covering
// power level.
func (h *Healer) applyParents(dst *model.Tree, parents []int) error {
	p := h.p
	for i := 0; i < h.p.N(); i++ {
		if h.skip[i] {
			continue
		}
		par := parents[i]
		lvl, err := p.Energy.LevelFor(geom.Dist(p.Posts[i], p.Point(par)))
		if err != nil {
			return fmt.Errorf("heal: post %d cannot reach repaired parent %d: %w", i, par, err)
		}
		dst.Parent[i] = par
		dst.Level[i] = lvl
	}
	return nil
}

// cheaperSurvivorTree reports whether candidate parent vector `b` prices
// below `a` under the degraded evaluation (both vectors in full-graph
// indices; `old` is the template tree for dead-post edges).
func (h *Healer) cheaperSurvivorTree(old model.Tree, aliveCounts []int, a, b []int) (bool, error) {
	h.copyTree(&h.treeA, old)
	if err := h.applyParents(&h.treeA, a); err != nil {
		return false, err
	}
	h.copyTree(&h.treeB, old)
	if err := h.applyParents(&h.treeB, b); err != nil {
		return false, err
	}
	ca, err := h.degraded.Evaluate(h.p, aliveCounts, h.treeA)
	if err != nil {
		return false, err
	}
	cb, err := h.degraded.Evaluate(h.p, aliveCounts, h.treeB)
	if err != nil {
		return false, err
	}
	return cb < ca, nil
}

// validateRepaired is model.Tree.ValidateSurvivors restricted to the
// routable survivors, run on the Healer's scratch buffers so the repair
// path stays allocation-free.
func (h *Healer) validateRepaired(t *model.Tree) error {
	p, n, bs := h.p, h.p.N(), h.bs
	for i := 0; i < n; i++ {
		if h.skip[i] {
			continue
		}
		par := t.Parent[i]
		if par < 0 || par > n || par == i {
			return fmt.Errorf("post %d has invalid parent %d", i, par)
		}
		if par != bs && h.skip[par] {
			return fmt.Errorf("surviving post %d routes through dead or stranded post %d", i, par)
		}
		lvl := t.Level[i]
		if lvl < 0 || lvl >= p.Energy.Levels() {
			return fmt.Errorf("post %d uses invalid power level %d", i, lvl)
		}
		d := geom.Dist(p.Posts[i], p.Point(par))
		if d > p.Energy.Range(lvl) {
			return fmt.Errorf("post %d at level %d (range %.1fm) cannot cover %.2fm hop to %d",
				i, lvl, p.Energy.Range(lvl), d, par)
		}
	}
	// Cycle/reachability check over the routable posts only.
	for i := range h.state {
		h.state[i] = 0
	}
	for i := 0; i < n; i++ {
		if h.skip[i] {
			continue
		}
		v := i
		h.chain = h.chain[:0]
		for v != bs {
			if h.state[v] == 1 {
				return fmt.Errorf("%w: detected at post %d", model.ErrCycle, v)
			}
			if h.state[v] == 2 {
				break
			}
			h.state[v] = 1
			h.chain = append(h.chain, v)
			v = t.Parent[v]
		}
		for _, u := range h.chain {
			h.state[u] = 2
		}
	}
	return nil
}

// RepairTree rebuilds the routing tree after post deaths; see
// Healer.Repair for the semantics. It constructs a throwaway Healer, so
// callers repairing the same problem repeatedly (the simulator) should
// hold a Healer instead.
func RepairTree(p *model.Problem, old model.Tree, aliveCounts []int, opts Options) (model.Tree, []int, error) {
	h, err := NewHealer(p, opts)
	if err != nil {
		return model.Tree{}, nil, err
	}
	var dst model.Tree
	stranded, err := h.Repair(old, aliveCounts, &dst)
	if err != nil {
		return model.Tree{}, nil, err
	}
	if stranded != nil {
		stranded = append([]int(nil), stranded...)
	}
	return dst, stranded, nil
}
