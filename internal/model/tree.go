package model

import (
	"errors"
	"fmt"

	"wrsn/internal/geom"
	"wrsn/internal/graph"
)

// Tree is a routing arborescence over the posts, directed toward the base
// station: Parent[i] is the graph vertex (another post, or the BS index N)
// post i transmits to, and Level[i] is the 0-based power level it uses.
type Tree struct {
	// Parent[i] is the next hop of post i: a post index in [0,N) or the
	// BS index N.
	Parent []int `json:"parent"`
	// Level[i] is the 0-based transmission power level post i uses to
	// reach Parent[i]. Builders always choose the smallest level whose
	// range covers the hop distance.
	Level []int `json:"level"`
}

// NewTreeFromParents builds a Tree from a parent vector, assigning every
// post the smallest power level that covers its hop, and validates the
// result against p.
func NewTreeFromParents(p *Problem, parents []int) (Tree, error) {
	n := p.N()
	if len(parents) != n {
		return Tree{}, fmt.Errorf("model: parent vector covers %d posts, want %d", len(parents), n)
	}
	t := Tree{Parent: append([]int(nil), parents...), Level: make([]int, n)}
	for i, par := range parents {
		if par < 0 || par > n {
			return Tree{}, fmt.Errorf("model: post %d has invalid parent %d", i, par)
		}
		if par == i {
			return Tree{}, fmt.Errorf("model: post %d is its own parent", i)
		}
		lvl, err := p.Energy.LevelFor(geom.Dist(p.Posts[i], p.Point(par)))
		if err != nil {
			return Tree{}, fmt.Errorf("model: post %d cannot reach parent %d: %w", i, par, err)
		}
		t.Level[i] = lvl
	}
	if err := t.Validate(p); err != nil {
		return Tree{}, err
	}
	return t, nil
}

// ErrCycle is returned when a parent vector contains a routing loop.
var ErrCycle = errors.New("model: routing tree contains a cycle")

// Validate checks that t is a valid routing tree for p: every post has a
// parent whose hop its level range covers, and following parents from any
// post reaches the base station without revisiting a post.
func (t Tree) Validate(p *Problem) error {
	n := p.N()
	if len(t.Parent) != n || len(t.Level) != n {
		return fmt.Errorf("model: tree sized for %d/%d posts, want %d", len(t.Parent), len(t.Level), n)
	}
	bs := p.BSIndex()
	for i := 0; i < n; i++ {
		par := t.Parent[i]
		if par < 0 || par > n || par == i {
			return fmt.Errorf("model: post %d has invalid parent %d", i, par)
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
	// Cycle check: follow parents; each chain must hit the BS in <= n hops.
	state := make([]int8, n) // 0 unvisited, 1 on current chain, 2 done
	for i := 0; i < n; i++ {
		v := i
		var chain []int
		for v != bs {
			switch state[v] {
			case 1:
				return fmt.Errorf("%w: detected at post %d", ErrCycle, v)
			case 2:
				v = bs // rest of chain already proven acyclic
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

// SubtreeSizes returns w_i for every post: the number of posts in the
// subtree rooted at i, including i itself. Each round post i transmits
// w_i bits and receives w_i - 1 bits. The tree must be valid for p.
func (t Tree) SubtreeSizes(p *Problem) []int {
	n := p.N()
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	for _, v := range graph.LeavesFirst(t.Parent, nil, nil, nil) {
		if par := t.Parent[v]; par < n {
			w[par] += w[v]
		}
	}
	return w
}

// SubtreeLoads returns the traffic load of every post: the sum of report
// rates over its subtree (== SubtreeSizes when rates are uniform). Post i
// transmits SubtreeLoads[i] bits per round and receives
// SubtreeLoads[i] - Rate(i) bits.
func (t Tree) SubtreeLoads(p *Problem) []float64 {
	n := p.N()
	loads := make([]float64, n)
	for i := 0; i < n; i++ {
		loads[i] = p.Rate(i)
	}
	for _, v := range graph.LeavesFirst(t.Parent, nil, nil, nil) {
		if par := t.Parent[v]; par < n {
			loads[par] += loads[v]
		}
	}
	return loads
}

// PostEnergies returns E_i for every post: the energy (nJ) post i's
// deployment consumes per reporting round, i.e. its subtree load in
// transmissions at its level plus the forwarded load in receptions, plus
// the problem's per-round sensing/computation overhead.
func (t Tree) PostEnergies(p *Problem) []float64 {
	loads := t.SubtreeLoads(p)
	rx := p.Energy.RxEnergy()
	es := make([]float64, len(loads))
	for i, li := range loads {
		tx := p.Energy.TxEnergyAtLevel(t.Level[i])
		es[i] = li*tx + (li-p.Rate(i))*rx + p.Overhead(i)
	}
	return es
}

// Children returns, for every post, the posts that route through it
// directly. Index p.N() holds the BS's direct children.
func (t Tree) Children(p *Problem) [][]int {
	n := p.N()
	ch := make([][]int, n+1)
	for i := 0; i < n; i++ {
		ch[t.Parent[i]] = append(ch[t.Parent[i]], i)
	}
	return ch
}

// Depth returns each post's hop count to the base station.
func (t Tree) Depth(p *Problem) []int {
	n := p.N()
	bs := p.BSIndex()
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	var walk func(v int) int
	walk = func(v int) int {
		if v == bs {
			return 0
		}
		if depth[v] >= 0 {
			return depth[v]
		}
		depth[v] = walk(t.Parent[v]) + 1
		return depth[v]
	}
	for i := 0; i < n; i++ {
		walk(i)
	}
	return depth
}

// Clone returns a deep copy of t.
func (t Tree) Clone() Tree {
	return Tree{
		Parent: append([]int(nil), t.Parent...),
		Level:  append([]int(nil), t.Level...),
	}
}
