package npc

import (
	"errors"
	"fmt"
	"math"

	"wrsn/internal/graph"
)

// Params are the radio/charging constants of the restricted problem the
// paper reduces to: two power levels with e2 = 4*e1, receive energy
// e0 < e1, single-node charging efficiency eta, and at most two nodes per
// post (a two-node post has twice the charging efficiency).
type Params struct {
	E0  float64 // receive energy per bit
	E1  float64 // transmit energy per bit at level l1 (l2 costs 4*E1)
	Eta float64 // single-node charging efficiency
}

// DefaultParams returns e0=1, e1=4, eta=1 (any values with 0<e0<e1 and
// 0<eta<=1 preserve the reduction).
func DefaultParams() Params { return Params{E0: 1, E1: 4, Eta: 1} }

// Validate checks the parameter constraints the proof relies on.
func (p Params) Validate() error {
	if !(p.E0 > 0 && p.E1 > 0 && p.E0 < p.E1) {
		return fmt.Errorf("npc: need 0 < e0 < e1, got e0=%g e1=%g", p.E0, p.E1)
	}
	if !(p.Eta > 0 && p.Eta <= 1) {
		return fmt.Errorf("npc: eta must be in (0, 1], got %g", p.Eta)
	}
	return nil
}

// GadgetEdge is a directed communication opportunity in the gadget
// network: the sender can reach To using power level Level (1 or 2).
type GadgetEdge struct {
	To    int
	Level int
}

// Instance is the deployment-and-routing instance produced by the
// reduction: the combinatorial U/V/S gadget network of Fig. 3.
type Instance struct {
	// Formula is the source 3-CNF formula.
	Formula *Formula
	// Params are the radio/charging constants.
	Params Params
	// NumPosts is N = 2n + 2m; the base station is vertex NumPosts.
	NumPosts int
	// Nodes is M = 3n + 3m.
	Nodes int
	// Labels names each post (U1.., V1.., S1,1..) for diagnostics.
	Labels []string
	// Edges[u] lists u's outgoing communication opportunities.
	Edges [][]GadgetEdge
	// W is the paper's decision bound: a solution of cost <= W exists
	// iff the formula is satisfiable.
	W float64
}

// Post index helpers. Layout: U_0..U_{m-1}, V_0..V_{m-1}, then for each
// variable i the pair (S_{i,1}, S_{i,2}).
func (in *Instance) uPost(j int) int    { return j }
func (in *Instance) vPost(j int) int    { return len(in.Formula.Clauses) + j }
func (in *Instance) sPost(i, k int) int { return 2*len(in.Formula.Clauses) + 2*i + (k - 1) }

// UPost, VPost and SPost expose the gadget layout for tests and tools.
// i is the 0-based variable index and k is 1 (positive) or 2 (negative).
func (in *Instance) UPost(j int) int { return in.uPost(j) }
func (in *Instance) VPost(j int) int { return in.vPost(j) }
func (in *Instance) SPost(i, k int) int {
	if k != 1 && k != 2 {
		panic(fmt.Sprintf("npc: SPost k must be 1 or 2, got %d", k))
	}
	return in.sPost(i, k)
}

// BSIndex returns the base-station vertex index.
func (in *Instance) BSIndex() int { return in.NumPosts }

// TxEnergy returns the per-bit transmit energy of level 1 or 2.
func (in *Instance) TxEnergy(level int) (float64, error) {
	switch level {
	case 1:
		return in.Params.E1, nil
	case 2:
		return 4 * in.Params.E1, nil
	default:
		return 0, fmt.Errorf("npc: invalid power level %d", level)
	}
}

// Reduce builds the paper's gadget instance from a 3-CNF formula:
//
//   - one post U_j and one post V_j per clause, one pair (S_i1, S_i2) per
//     variable;
//   - only the U_j can reach the base station, and only at l2;
//   - S_i1 can reach U_j at l2 iff x_i ∈ C_j (S_i2 iff ¬x_i ∈ C_j);
//   - siblings S_i1 and S_i2 reach each other at l1;
//   - V_j reaches the S posts of C_j's literals at l1;
//   - M = 3n+3m nodes over N = 2n+2m posts, at most two per post;
//   - W = 7m·e1/η + 9n·e1/η + m·e0/η + 3n·e0/(2η).
func Reduce(f *Formula, params Params) (*Instance, error) {
	if err := f.ValidateFor3CNF(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n, m := f.NumVars, len(f.Clauses)
	in := &Instance{
		Formula:  f,
		Params:   params,
		NumPosts: 2*n + 2*m,
		Nodes:    3*n + 3*m,
	}
	in.Edges = make([][]GadgetEdge, in.NumPosts)
	in.Labels = make([]string, in.NumPosts)
	for j := 0; j < m; j++ {
		in.Labels[in.uPost(j)] = fmt.Sprintf("U%d", j+1)
		in.Labels[in.vPost(j)] = fmt.Sprintf("V%d", j+1)
	}
	for i := 0; i < n; i++ {
		in.Labels[in.sPost(i, 1)] = fmt.Sprintf("S%d,1", i+1)
		in.Labels[in.sPost(i, 2)] = fmt.Sprintf("S%d,2", i+1)
	}

	addEdge := func(from, to, level int) {
		in.Edges[from] = append(in.Edges[from], GadgetEdge{To: to, Level: level})
	}
	for j := 0; j < m; j++ {
		addEdge(in.uPost(j), in.BSIndex(), 2)
		for _, l := range f.Clauses[j] {
			k := 1
			if l.Negated() {
				k = 2
			}
			s := in.sPost(l.Var()-1, k)
			addEdge(s, in.uPost(j), 2)
			addEdge(in.vPost(j), s, 1)
		}
	}
	for i := 0; i < n; i++ {
		addEdge(in.sPost(i, 1), in.sPost(i, 2), 1)
		addEdge(in.sPost(i, 2), in.sPost(i, 1), 1)
	}

	e0, e1, eta := params.E0, params.E1, params.Eta
	in.W = 7*float64(m)*e1/eta + 9*float64(n)*e1/eta + float64(m)*e0/eta + 3*float64(n)*e0/(2*eta)
	return in, nil
}

// edgeLevel returns the minimum level at which from can reach to, or 0.
// Duplicate edges (a literal repeated in a clause) resolve to the lowest
// level.
func (in *Instance) edgeLevel(from, to int) int {
	best := 0
	for _, e := range in.Edges[from] {
		if e.To == to && (best == 0 || e.Level < best) {
			best = e.Level
		}
	}
	return best
}

// EvaluateSolution computes the total recharging cost of a deployment
// (node count per post, each 1 or 2, summing to M) and routing (parent
// per post), validating feasibility against the gadget's reachability.
func (in *Instance) EvaluateSolution(deploy []int, parents []int) (float64, error) {
	n := in.NumPosts
	if len(deploy) != n || len(parents) != n {
		return 0, fmt.Errorf("npc: solution sized %d/%d, want %d", len(deploy), len(parents), n)
	}
	total := 0
	for i, m := range deploy {
		if m < 1 || m > 2 {
			return 0, fmt.Errorf("npc: post %s deployed with %d nodes, must be 1 or 2", in.Labels[i], m)
		}
		total += m
	}
	if total != in.Nodes {
		return 0, fmt.Errorf("npc: deployment uses %d nodes, instance has %d", total, in.Nodes)
	}

	// Per-post subtree sizes, with cycle/feasibility checks.
	levels := make([]int, n)
	for i, par := range parents {
		if par == i || par < 0 || par > n {
			return 0, fmt.Errorf("npc: post %s has invalid parent %d", in.Labels[i], par)
		}
		lvl := in.edgeLevel(i, par)
		if lvl == 0 {
			parentName := "BS"
			if par < n {
				parentName = in.Labels[par]
			}
			return 0, fmt.Errorf("npc: post %s cannot reach its parent %s", in.Labels[i], parentName)
		}
		levels[i] = lvl
	}
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	// Count descendants by walking each chain; detect cycles with a
	// visited-depth bound.
	for i := 0; i < n; i++ {
		v := parents[i]
		steps := 0
		for v != n {
			w[v]++
			v = parents[v]
			if steps++; steps > n {
				return 0, errors.New("npc: routing contains a cycle")
			}
		}
	}

	var cost float64
	for i := 0; i < n; i++ {
		tx, err := in.TxEnergy(levels[i])
		if err != nil {
			return 0, err
		}
		energy := float64(float64(w[i])*tx) + float64(float64(w[i]-1)*in.Params.E0)
		cost += energy / (float64(deploy[i]) * in.Params.Eta)
	}
	return cost, nil
}

// minCostForDeployment returns the cheapest routing cost for a fixed
// deployment: one Dijkstra under recharging-cost weights over the gadget
// edges (the same structural fact the main solvers use). Unreachable
// posts yield an error.
func (in *Instance) minCostForDeployment(deploy []int) (float64, []int, error) {
	n := in.NumPosts
	b := graph.NewBuilder(n + 1)
	for u := 0; u < n; u++ {
		for _, e := range in.Edges[u] {
			tx, err := in.TxEnergy(e.Level)
			if err != nil {
				return 0, nil, err
			}
			w := tx / (float64(deploy[u]) * in.Params.Eta)
			if e.To != n {
				w += in.Params.E0 / (float64(deploy[e.To]) * in.Params.Eta)
			}
			if err := b.AddEdge(u, e.To, w); err != nil {
				return 0, nil, err
			}
		}
	}
	dag, err := b.Build().ShortestPathDAG(n, 1e-12)
	if err != nil {
		return 0, nil, err
	}
	parents := make([]int, n)
	var total float64
	for u := 0; u < n; u++ {
		if !dag.Reachable(u) || len(dag.Parents[u]) == 0 {
			return 0, nil, fmt.Errorf("npc: post %s cannot reach the base station", in.Labels[u])
		}
		total += dag.Dist[u]
		parents[u] = dag.Parents[u][0]
	}
	return total, parents, nil
}

// OptimalResult is the outcome of exact optimisation of a gadget instance.
type OptimalResult struct {
	Cost    float64
	Deploy  []int
	Parents []int
	// Evaluations counts deployments examined.
	Evaluations int64
}

// MaxOptimalPosts bounds exhaustive gadget optimisation; beyond this the
// subset enumeration C(N, n+m) is hopeless anyway.
const MaxOptimalPosts = 40

// OptimalCost exactly minimises the gadget instance's total recharging
// cost over every deployment (choose which n+m posts receive the second
// node) and every feasible routing. The formula is satisfiable iff the
// returned cost is <= W (the executable form of the paper's Theorem).
func (in *Instance) OptimalCost() (*OptimalResult, error) {
	n := in.NumPosts
	if n > MaxOptimalPosts {
		return nil, fmt.Errorf("npc: instance with %d posts exceeds the exhaustive-optimisation limit %d", n, MaxOptimalPosts)
	}
	doubles := in.Nodes - n // number of posts holding two nodes
	deploy := make([]int, n)
	for i := range deploy {
		deploy[i] = 1
	}
	best := &OptimalResult{Cost: math.Inf(1)}
	var rec func(start, left int) error
	rec = func(start, left int) error {
		if left == 0 {
			cost, parents, err := in.minCostForDeployment(deploy)
			best.Evaluations++
			if err != nil {
				return err
			}
			if cost < best.Cost {
				best.Cost = cost
				best.Deploy = append(best.Deploy[:0], deploy...)
				best.Parents = append(best.Parents[:0], parents...)
			}
			return nil
		}
		for i := start; i <= n-left; i++ {
			deploy[i] = 2
			if err := rec(i+1, left-1); err != nil {
				return err
			}
			deploy[i] = 1
		}
		return nil
	}
	if err := rec(0, doubles); err != nil {
		return nil, err
	}
	if math.IsInf(best.Cost, 1) {
		return nil, errors.New("npc: no feasible deployment found")
	}
	return best, nil
}

// CanonicalSolution maps a satisfying assignment to the paper's
// prescribed deployment and routing, whose cost is exactly W:
//
//   - every U_j holds two nodes and uplinks to the BS at l2;
//   - for each variable, the post of the *true* literal holds two nodes;
//     its sibling holds one and routes to it at l1;
//   - each two-node S post uplinks at l2 to some clause containing its
//     literal;
//   - every V_j holds one node and routes at l1 to the two-node S post of
//     one of C_j's true literals.
//
// The assignment is first normalised: a variable whose true literal
// occurs in no clause is flipped (which preserves satisfaction), so every
// two-node S post has an l2 uplink.
func (in *Instance) CanonicalSolution(a Assignment) ([]int, []int, error) {
	f := in.Formula
	if !a.Satisfies(f) {
		return nil, nil, errors.New("npc: assignment does not satisfy the formula")
	}
	norm := append(Assignment(nil), a...)
	pos, neg := f.VariableOccurrences()
	for v := 1; v <= f.NumVars; v++ {
		if norm[v] && len(pos[v]) == 0 {
			norm[v] = false
		} else if !norm[v] && len(neg[v]) == 0 {
			norm[v] = true
		}
	}
	if !norm.Satisfies(f) {
		return nil, nil, errors.New("npc: internal error: normalisation broke satisfaction")
	}

	n, m := f.NumVars, len(f.Clauses)
	deploy := make([]int, in.NumPosts)
	parents := make([]int, in.NumPosts)
	for i := range deploy {
		deploy[i] = 1
	}
	for j := 0; j < m; j++ {
		deploy[in.uPost(j)] = 2
		parents[in.uPost(j)] = in.BSIndex()
	}
	// Variable gadgets.
	for i := 0; i < n; i++ {
		trueK, falseK := 1, 2
		if !norm[i+1] {
			trueK, falseK = 2, 1
		}
		truePost, falsePost := in.sPost(i, trueK), in.sPost(i, falseK)
		deploy[truePost] = 2
		parents[falsePost] = truePost
		// Uplink: any clause containing the true literal.
		occ := pos[i+1]
		if trueK == 2 {
			occ = neg[i+1]
		}
		if len(occ) == 0 {
			return nil, nil, fmt.Errorf("npc: internal error: true literal of x%d occurs nowhere after normalisation", i+1)
		}
		parents[truePost] = in.uPost(occ[0])
	}
	// Clause gadgets: V_j routes to the two-node S post of a true literal.
	for j := 0; j < m; j++ {
		assigned := false
		for _, l := range f.Clauses[j] {
			if norm[l.Var()] != l.Negated() { // literal true under norm
				k := 1
				if l.Negated() {
					k = 2
				}
				parents[in.vPost(j)] = in.sPost(l.Var()-1, k)
				assigned = true
				break
			}
		}
		if !assigned {
			return nil, nil, fmt.Errorf("npc: internal error: clause %d has no true literal", j)
		}
	}
	return deploy, parents, nil
}
