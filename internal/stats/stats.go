// Package stats provides the small statistics toolkit used by the
// experiment harness: summary statistics over repeated simulation seeds
// and aggregation of per-seed series into mean curves, matching the
// paper's "average of 20 simulations on different post distributions"
// methodology.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the descriptive statistics of one sample.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"` // sample standard deviation (n-1)
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
}

// Summarize computes the Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			// The conversion rounds the product, so no architecture fuses
			// it into the sum and the spread is bit-identical everywhere.
			ss += float64(d * d)
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s, nil
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// StdDev returns the sample standard deviation of xs (0 for a single
// observation).
func StdDev(xs []float64) (float64, error) {
	s, err := Summarize(xs)
	if err != nil {
		return 0, err
	}
	return s.StdDev, nil
}

// CI95HalfWidth returns the half-width of a normal-approximation 95%
// confidence interval for the mean of xs.
func CI95HalfWidth(xs []float64) (float64, error) {
	s, err := Summarize(xs)
	if err != nil {
		return 0, err
	}
	if s.N < 2 {
		return 0, nil
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N)), nil
}

// MeanSeries averages per-seed series element-wise: series[seed][i].
// All series must have equal length.
func MeanSeries(series [][]float64) ([]float64, error) {
	if len(series) == 0 {
		return nil, ErrEmpty
	}
	n := len(series[0])
	for i, s := range series {
		if len(s) != n {
			return nil, fmt.Errorf("stats: series %d has length %d, want %d", i, len(s), n)
		}
	}
	out := make([]float64, n)
	for _, s := range series {
		for i, v := range s {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(series))
	}
	return out, nil
}

// RelDiff returns (a-b)/b, the relative difference of a versus baseline b.
func RelDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (a - b) / b
}

// ApproxEqual reports |a-b| <= absTol + relTol*max(|a|,|b|), the standard
// combined-tolerance float comparison used across the test suites.
func ApproxEqual(a, b, absTol, relTol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= absTol+float64(relTol*scale)
}
