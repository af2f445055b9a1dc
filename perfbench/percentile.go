package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile before it is reported at all: with fewer, the "percentile" is
// just the largest few samples and moves with every run.
const minBeyond = 10

// summary condenses a sample to its median and one tail percentile, with
// the sample count both rest on.
type summary struct {
	N    int
	P50  float64
	Q    float64 // the tail quantile, e.g. 0.99
	Tail float64 // the sample's Q-quantile
}

// summarize returns the median and the nearest-rank q-quantile of xs. It
// errors when fewer than minBeyond samples lie strictly beyond the
// quantile's rank, so a tail is never reported from a sample too small to
// hold one. xs is not modified.
func summarize(xs []float64, q float64) (summary, error) {
	if !(q > 0.5 && q < 1) {
		return summary{}, fmt.Errorf("tail quantile %g outside (0.5, 1)", q)
	}
	s := sortedCopy(xs)
	n := len(s)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return summary{}, fmt.Errorf("%d samples leave %d beyond p%g, need %d", n, max(n-rank, 0), 100*q, minBeyond)
	}
	return summary{N: n, P50: medianSorted(s), Q: q, Tail: s[rank-1]}, nil
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	return medianSorted(sortedCopy(xs))
}

func medianSorted(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
