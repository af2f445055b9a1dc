package deploy

import (
	"fmt"
	"math"
)

// The paper motivates multi-node posts partly by fault tolerance:
// "deploying multiple nodes in one post can increase the recharging
// efficiency and fault tolerance". This file quantifies that: given a
// per-node survival probability over a mission horizon, how many nodes
// must each post start with so that its planned working strength survives
// with high confidence?

// BinomialCDF returns P[X <= k] for X ~ Binomial(n, p), computed by
// direct summation in log space for numerical robustness at large n.
func BinomialCDF(k, n int, p float64) float64 {
	switch {
	case k < 0:
		return 0
	case k >= n:
		return 1
	case p <= 0:
		return 1
	case p >= 1:
		return 0
	}
	total := 0.0
	logP, logQ := math.Log(p), math.Log1p(-p)
	for i := 0; i <= k; i++ {
		logTerm := logChoose(n, i) + float64(float64(i)*logP) + float64(float64(n-i)*logQ)
		total += math.Exp(logTerm)
	}
	if total > 1 {
		total = 1
	}
	return total
}

// logChoose returns ln C(n, k) via log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// SparesFor returns the smallest starting node count M such that, with
// each node independently surviving the mission with probability
// `survive`, at least `need` nodes remain with probability >= confidence:
//
//	P[ Binomial(M, survive) >= need ] >= confidence
//
// It errors on degenerate inputs (need < 1, survive <= 0, confidence
// outside (0, 1)) and on horizons no node count can satisfy.
func SparesFor(need int, survive, confidence float64) (int, error) {
	if need < 1 {
		return 0, fmt.Errorf("deploy: need %d nodes; must be >= 1", need)
	}
	if survive <= 0 || survive > 1 {
		return 0, fmt.Errorf("deploy: survival probability %g outside (0, 1]", survive)
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, fmt.Errorf("deploy: confidence %g outside (0, 1)", confidence)
	}
	if survive == 1 {
		return need, nil
	}
	const maxNodes = 1 << 20
	for m := need; m <= maxNodes; m++ {
		// P[X >= need] = 1 - P[X <= need-1].
		if 1-BinomialCDF(need-1, m, survive) >= confidence {
			return m, nil
		}
	}
	return 0, fmt.Errorf("deploy: no node count below %d satisfies need=%d survive=%g confidence=%g",
		maxNodes, need, survive, confidence)
}

// ProvisionSpares inflates a planned deployment so that every post keeps
// its planned strength with the given confidence. It returns the inflated
// per-post counts and the new total (the extra nodes the operator must
// procure beyond the optimiser's M).
func ProvisionSpares(planned []int, survive, confidence float64) ([]int, int, error) {
	out := make([]int, len(planned))
	total := 0
	for i, need := range planned {
		m, err := SparesFor(need, survive, confidence)
		if err != nil {
			return nil, 0, fmt.Errorf("deploy: post %d: %w", i, err)
		}
		out[i] = m
		total += m
	}
	return out, total, nil
}
