package model

// This file holds the degraded-network primitives behind self-healing:
// survivor reachability, patched-tree validation against a death mask,
// and pricing a degraded plan. The tree rebuild itself lives in
// internal/heal (it needs internal/routing, which model cannot import).

import (
	"fmt"

	"wrsn/internal/geom"
	"wrsn/internal/graph"
)

// SurvivorsReachable runs a BFS from the base station over the
// maximum-range connectivity graph restricted to posts with alive[i] ==
// true, and reports which of them can still reach the BS via multi-hop
// survivor paths. Dead posts are always false.
func (p *Problem) SurvivorsReachable(alive []bool) []bool {
	n := p.N()
	dmax := p.Energy.MaxRange()
	seen := make([]bool, n+1)
	seen[n] = true
	queue := []int{n}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		pv := p.Point(v)
		for u := 0; u < n; u++ {
			if !seen[u] && alive[u] && geom.Dist(pv, p.Posts[u]) <= dmax {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return seen[:n]
}

// ValidateSurvivors checks a patched tree against a degraded network:
// every post with alive[i] == true must hold a valid, level-covered
// parent edge and a parent chain that reaches the base station through
// alive posts only, without cycles. Dead posts are ignored entirely
// (their edges are inert — they originate and forward nothing).
func (t Tree) ValidateSurvivors(p *Problem, alive []bool) error {
	n := p.N()
	if len(t.Parent) != n || len(t.Level) != n {
		return fmt.Errorf("model: tree sized for %d/%d posts, want %d", len(t.Parent), len(t.Level), n)
	}
	if len(alive) != n {
		return fmt.Errorf("model: %d alive flags for %d posts", len(alive), n)
	}
	bs := p.BSIndex()
	for i := 0; i < n; i++ {
		if !alive[i] {
			continue
		}
		par := t.Parent[i]
		if par < 0 || par > n || par == i {
			return fmt.Errorf("model: post %d has invalid parent %d", i, par)
		}
		if par != bs && !alive[par] {
			return fmt.Errorf("model: surviving post %d routes through dead post %d", i, par)
		}
		lvl := t.Level[i]
		if lvl < 0 || lvl >= p.Energy.Levels() {
			return fmt.Errorf("model: post %d uses invalid power level %d", i, lvl)
		}
		d := geom.Dist(p.Posts[i], p.Point(par))
		if d > p.Energy.Range(lvl) {
			return fmt.Errorf("model: post %d at level %d (range %.1fm) cannot cover %.2fm hop to %d",
				i, lvl, p.Energy.Range(lvl), d, par)
		}
	}
	// Cycle/reachability check over the surviving posts only.
	state := make([]int8, n) // 0 unvisited, 1 on chain, 2 done
	for i := 0; i < n; i++ {
		if !alive[i] {
			continue
		}
		v := i
		var chain []int
		for v != bs {
			switch state[v] {
			case 1:
				return fmt.Errorf("%w: detected at post %d", ErrCycle, v)
			case 2:
				v = bs
				continue
			}
			state[v] = 1
			chain = append(chain, v)
			v = t.Parent[v]
		}
		for _, u := range chain {
			state[u] = 2
		}
	}
	return nil
}

// EvaluateDegraded prices a degraded network: the charger energy per
// reporting round with only aliveCounts[i] nodes left at each post. Dead
// posts (count 0) originate nothing, forward nothing (traffic reaching
// them is dropped), and cost nothing; each surviving post's energy is
// divided by the charging efficiency of its *surviving* strength. With
// every post at planned strength this equals Evaluate.
func EvaluateDegraded(p *Problem, aliveCounts []int, tree Tree) (float64, error) {
	var s DegradedScratch
	return s.Evaluate(p, aliveCounts, tree)
}

// DegradedScratch holds EvaluateDegraded's working buffers — the load
// vector and graph.LeavesFirst's order and pending arrays — so a caller
// that prices degraded plans repeatedly allocates nothing once they have
// grown to the problem's size. The zero value is ready to use. Not safe
// for concurrent use.
type DegradedScratch struct {
	load    []float64
	order   []int
	pending []int
}

// Evaluate is EvaluateDegraded on the scratch buffers.
func (s *DegradedScratch) Evaluate(p *Problem, aliveCounts []int, tree Tree) (float64, error) {
	n := p.N()
	if len(aliveCounts) != n {
		return 0, fmt.Errorf("model: %d alive counts for %d posts", len(aliveCounts), n)
	}
	if len(tree.Parent) != n || len(tree.Level) != n {
		return 0, fmt.Errorf("model: tree sized for %d/%d posts, want %d", len(tree.Parent), len(tree.Level), n)
	}
	// Accumulate subtree loads leaves-first; dead posts drop what reaches
	// them and inject nothing.
	if cap(s.load) < n {
		s.load = make([]float64, n)
		s.pending = make([]int, n)
	}
	load := s.load[:n]
	for i := 0; i < n; i++ {
		load[i] = 0
		if aliveCounts[i] > 0 {
			load[i] = p.Rate(i)
		}
	}
	s.order = graph.LeavesFirst(tree.Parent, nil, s.order, s.pending)
	order := s.order
	if len(order) != n {
		return 0, ErrCycle
	}
	for _, v := range order {
		if par := tree.Parent[v]; par < n && aliveCounts[v] > 0 {
			load[par] += load[v]
		}
	}
	rx := p.Energy.RxEnergy()
	var total float64
	for i := 0; i < n; i++ {
		if aliveCounts[i] == 0 {
			continue
		}
		tx := p.Energy.TxEnergyAtLevel(tree.Level[i])
		e := float64(load[i]*tx) + float64((load[i]-p.Rate(i))*rx) + p.Overhead(i)
		cost, err := p.Charging.RechargeCost(e, aliveCounts[i])
		if err != nil {
			return 0, fmt.Errorf("model: post %d: %w", i, err)
		}
		total += cost
	}
	return total, nil
}
