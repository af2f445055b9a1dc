package model

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Report is a diagnostic digest of a solution: where the energy goes,
// how concentrated deployment and traffic are, and which posts dominate
// the recharging bill. CLIs and examples print it; tests pin its math.
type Report struct {
	Posts int     `json:"posts"`
	Nodes int     `json:"nodes"`
	Cost  float64 `json:"cost_nj"` // total recharging cost per bit-round

	// MaxDepth is the deepest post's hop count to the base station.
	MaxDepth int `json:"max_depth"`
	// MeanDepth averages hop counts over posts.
	MeanDepth float64 `json:"mean_depth"`
	// DeploymentGini measures node-concentration inequality in [0, 1):
	// 0 = perfectly uniform; the paper's designs deliberately push it up.
	DeploymentGini float64 `json:"deployment_gini"`
	// MaxNodesPerPost is the largest co-location.
	MaxNodesPerPost int `json:"max_nodes_per_post"`
	// TopCostShare is the fraction of the total recharging cost incurred
	// by the most expensive 10% of posts (rounded up).
	TopCostShare float64 `json:"top_cost_share"`
	// BottleneckPost is the single most expensive post to keep alive.
	BottleneckPost int `json:"bottleneck_post"`
	// BottleneckCost is that post's recharging cost per bit-round.
	BottleneckCost float64 `json:"bottleneck_cost_nj"`
	// LevelUsage[l] counts posts transmitting at power level l (0-based).
	LevelUsage []int `json:"level_usage"`
}

// BuildReport validates (deploy, tree) against p and computes the digest.
func BuildReport(p *Problem, deploy Deployment, tree Tree) (*Report, error) {
	cost, err := Evaluate(p, deploy, tree)
	if err != nil {
		return nil, err
	}
	n := p.N()
	r := &Report{
		Posts:      n,
		Nodes:      p.Nodes,
		Cost:       cost,
		LevelUsage: make([]int, p.Energy.Levels()),
	}

	depths := tree.Depth(p)
	var depthSum int
	for _, d := range depths {
		depthSum += d
		if d > r.MaxDepth {
			r.MaxDepth = d
		}
	}
	r.MeanDepth = float64(depthSum) / float64(n)

	r.DeploymentGini = gini(deploy)
	r.MaxNodesPerPost = deploy.Max()

	for _, lvl := range tree.Level {
		r.LevelUsage[lvl]++
	}

	// Per-post recharging costs.
	energies := tree.PostEnergies(p)
	perPost := make([]float64, n)
	for i, e := range energies {
		c, err := p.Charging.RechargeCost(e, deploy[i])
		if err != nil {
			return nil, err
		}
		perPost[i] = c
		if c > r.BottleneckCost {
			r.BottleneckCost = c
			r.BottleneckPost = i
		}
	}
	sorted := append([]float64(nil), perPost...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	top := (n + 9) / 10
	var topSum float64
	for _, c := range sorted[:top] {
		topSum += c
	}
	if cost > 0 {
		r.TopCostShare = topSum / cost
	}
	return r, nil
}

// gini computes the Gini coefficient of the node counts.
func gini(deploy Deployment) float64 {
	n := len(deploy)
	if n == 0 {
		return 0
	}
	sorted := make([]int, n)
	copy(sorted, deploy)
	sort.Ints(sorted)
	var cum, weighted float64
	for i, m := range sorted {
		cum += float64(m)
		weighted += float64(float64(i+1) * float64(m))
	}
	if cum == 0 {
		return 0
	}
	// G = (2*sum(i*x_i))/(n*sum(x)) - (n+1)/n with 1-based ranks.
	g := 2*weighted/(float64(n)*cum) - float64(n+1)/float64(n)
	return math.Max(0, g)
}

// String renders the report as aligned key/value lines.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cost:                %.4f µJ per bit-round\n", r.Cost/1000)
	fmt.Fprintf(&sb, "posts / nodes:       %d / %d (max %d per post, Gini %.3f)\n",
		r.Posts, r.Nodes, r.MaxNodesPerPost, r.DeploymentGini)
	fmt.Fprintf(&sb, "tree depth:          max %d, mean %.2f hops\n", r.MaxDepth, r.MeanDepth)
	fmt.Fprintf(&sb, "cost concentration:  top 10%% of posts carry %.1f%% of the bill\n", r.TopCostShare*100)
	fmt.Fprintf(&sb, "bottleneck:          post %d at %.4f µJ per bit-round\n",
		r.BottleneckPost, r.BottleneckCost/1000)
	fmt.Fprintf(&sb, "power levels in use:")
	for l, c := range r.LevelUsage {
		fmt.Fprintf(&sb, " l%d×%d", l+1, c)
	}
	sb.WriteByte('\n')
	return sb.String()
}
