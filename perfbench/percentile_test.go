package main

import (
	"math"
	"testing"
)

func TestSummarizeTooFewBeyondTail(t *testing.T) {
	for _, n := range []int{0, 1, 10, 999} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, err := summarize(xs, 0.99); err == nil {
			t.Errorf("%d samples: want an error, p99 has fewer than %d samples beyond it", n, minBeyond)
		}
	}
	xs := make([]float64, 99)
	if _, err := summarize(xs, 0.90); err == nil {
		t.Error("99 samples: want an error for p90 (9 beyond)")
	}
}

func TestSummarizeUniform(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	s, err := summarize(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1000 || s.P50 != 500.5 || s.Tail != 990 || s.Q != 0.99 {
		t.Fatalf("got %+v, want N=1000 P50=500.5 p99=990", s)
	}
	if xs[0] != 1000 {
		t.Fatal("summarize reordered its input")
	}
}

func TestSummarizeTied(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 3
	}
	s, err := summarize(xs, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if s.P50 != 3 || s.Tail != 3 {
		t.Fatalf("all-equal sample: got %+v, want 3 everywhere", s)
	}
}

func TestSummarizeSkewed(t *testing.T) {
	// 980 fast samples and 20 slow ones: the median stays fast, p99 sees
	// the slow tail.
	var xs []float64
	for i := 0; i < 980; i++ {
		xs = append(xs, 1)
	}
	for i := 0; i < 20; i++ {
		xs = append(xs, 100+float64(i))
	}
	s, err := summarize(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if s.P50 != 1 {
		t.Errorf("median %v, want 1", s.P50)
	}
	if s.Tail != 109 {
		t.Errorf("p99 %v, want 109 (rank 990 of 1000)", s.Tail)
	}
}

func TestSummarizeRejectsBadQuantile(t *testing.T) {
	for _, q := range []float64{0, 0.5, 1, math.NaN()} {
		if _, err := summarize(make([]float64, 5000), q); err == nil {
			t.Errorf("q=%v: want an error", q)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 2, 9}, 2},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
