package deploy

import (
	"math"
	"math/rand"
	"testing"
)

func TestAllocateBasics(t *testing.T) {
	m, err := Allocate([]float64{4, 1, 1, 1, 1, 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	// sqrt weights: 2,1,1,1,1,1 -> continuous 2, 1, 1, 1, 1, 1.
	want := []int{2, 1, 1, 1, 1, 1}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("Allocate = %v, want %v", m, want)
		}
	}
}

func TestAllocateInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		total := n + rng.Intn(50)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() * 1000
		}
		m, err := Allocate(weights, total)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sum := 0
		for i, v := range m {
			if v < 1 {
				t.Fatalf("trial %d: post %d got %d nodes", trial, i, v)
			}
			sum += v
		}
		if sum != total {
			t.Fatalf("trial %d: allocated %d of %d nodes", trial, sum, total)
		}
	}
}

func TestAllocateZeroWeights(t *testing.T) {
	m, err := Allocate([]float64{0, 0, 0}, 6)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, v := range m {
		if v < 1 {
			t.Fatalf("zero-weight post starved: %v", m)
		}
		sum += v
	}
	if sum != 6 {
		t.Fatalf("allocated %d of 6", sum)
	}
}

func TestAllocateErrors(t *testing.T) {
	if _, err := Allocate(nil, 3); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := Allocate([]float64{1, 1}, 1); err == nil {
		t.Error("budget below post count accepted")
	}
	if _, err := Allocate([]float64{1, -1}, 3); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := Allocate([]float64{1, math.NaN()}, 3); err == nil {
		t.Error("NaN weight accepted")
	}
	if _, err := Allocate([]float64{1, math.Inf(1)}, 3); err == nil {
		t.Error("infinite weight accepted")
	}
}

// objective returns sum_i weights_i / m_i, the quantity Allocate
// minimises (the recharging cost up to the 1/eta factor, for linear gain).
func objective(weights []float64, m []int) float64 {
	var total float64
	for i, w := range weights {
		total += w / float64(m[i])
	}
	return total
}

// bruteForceBest exhaustively minimises sum w_i/m_i over deployments.
func bruteForceBest(weights []float64, total int) float64 {
	best := math.Inf(1)
	_ = ForEachDeployment(len(weights), total, func(m []int) bool {
		if v := objective(weights, m); v < best {
			best = v
		}
		return true
	})
	return best
}

// TestAllocateNearOptimal: the Lagrange+rounding allocation should be
// within a few percent of the exhaustive integer optimum on small cases.
func TestAllocateNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	worst := 0.0
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(4)     // 2..5 posts
		total := n + rng.Intn(8) // up to 7 spare nodes
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.5 + rng.Float64()*99.5
		}
		m, err := Allocate(weights, total)
		if err != nil {
			t.Fatal(err)
		}
		got := objective(weights, m)
		best := bruteForceBest(weights, total)
		gap := (got - best) / best
		if gap > worst {
			worst = gap
		}
		if gap > 0.10 {
			t.Fatalf("trial %d: allocation %v has objective %.4f, optimum %.4f (gap %.1f%%) weights=%v total=%d",
				trial, m, got, best, gap*100, weights, total)
		}
	}
	t.Logf("worst rounding gap over 100 trials: %.2f%%", worst*100)
}
