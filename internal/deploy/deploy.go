// Package deploy implements node-to-post allocation: the paper's
// Lagrange-multipliers deployment with iterative rounding (Phase IV of
// RFH) and the composition enumerators behind the IDB heuristic and the
// exhaustive reference solver.
package deploy

import (
	"errors"
	"fmt"
	"math"
)

// Allocate distributes M sensor nodes over N posts so as to minimise
// sum_i weight_i / m_i subject to sum m_i = M and m_i >= 1 — the paper's
// Phase-IV objective, where weight_i is post i's per-round energy
// consumption (proportional to its routing workload).
//
// The continuous optimum, by Lagrange multipliers, is
// m_i = M * sqrt(weight_i) / sum_j sqrt(weight_j). Integrality follows the
// paper's scheme: repeatedly re-solve the continuous relaxation over the
// undecided posts and remaining budget, round the *smallest* fractional
// share to the nearest integer (floored at 1), and fix it. The last post
// absorbs the residual budget, so the result always sums to exactly M.
func Allocate(weights []float64, m int) ([]int, error) {
	n := len(weights)
	if n == 0 {
		return nil, errors.New("deploy: no posts to allocate to")
	}
	if m < n {
		return nil, fmt.Errorf("deploy: %d nodes cannot cover %d posts", m, n)
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("deploy: post %d has invalid weight %g", i, w)
		}
	}

	sqrtW := make([]float64, n)
	for i, w := range weights {
		sqrtW[i] = math.Sqrt(w)
	}
	out := make([]int, n)
	undecided := make([]int, n)
	for i := range undecided {
		undecided[i] = i
	}
	budget := m
	for len(undecided) > 0 {
		if len(undecided) == 1 {
			out[undecided[0]] = budget
			break
		}
		var sum float64
		for _, i := range undecided {
			sum += sqrtW[i]
		}
		// Pick the undecided post with the smallest continuous share.
		// With sum == 0 (all-zero weights) every share is equal; the
		// first post is picked and receives an even split.
		pick, pickIdx := undecided[0], 0
		pickVal := math.Inf(1)
		for idx, i := range undecided {
			var v float64
			if sum > 0 {
				v = float64(budget) * sqrtW[i] / sum
			} else {
				v = float64(budget) / float64(len(undecided))
			}
			if v < pickVal {
				pick, pickIdx, pickVal = i, idx, v
			}
		}
		val := int(math.Round(pickVal))
		// Clamp: at least 1 node, and leave >= 1 for every other
		// undecided post.
		if val < 1 {
			val = 1
		}
		if max := budget - (len(undecided) - 1); val > max {
			val = max
		}
		out[pick] = val
		budget -= val
		undecided = append(undecided[:pickIdx], undecided[pickIdx+1:]...)
	}
	return out, nil
}
