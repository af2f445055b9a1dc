package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomForest draws a parent vector over n vertices: each vertex hangs
// under one that comes later in a random permutation, or is a root
// (parent -1 or n, both meaning "outside the forest").
func randomForest(rng *rand.Rand, n int) []int {
	perm := rng.Perm(n)
	parent := make([]int, n)
	for k, u := range perm {
		switch rest := n - 1 - k; {
		case rest == 0 || rng.Intn(8) == 0:
			parent[u] = []int{-1, n}[rng.Intn(2)]
		default:
			parent[u] = perm[k+1+rng.Intn(rest)]
		}
	}
	return parent
}

func TestLeavesFirst(t *testing.T) {
	t.Run("children before parents", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(60)
			parent := randomForest(rng, n)
			order := LeavesFirst(parent, nil, nil, nil)
			if len(order) != n {
				t.Fatalf("trial %d: ordered %d of %d vertices", trial, len(order), n)
			}
			pos := make([]int, n)
			for i := range pos {
				pos[i] = -1
			}
			for k, u := range order {
				if pos[u] >= 0 {
					t.Fatalf("trial %d: vertex %d ordered twice", trial, u)
				}
				pos[u] = k
			}
			for u, p := range parent {
				if p >= 0 && p < n && pos[u] > pos[p] {
					t.Fatalf("trial %d: vertex %d ordered after its parent %d", trial, u, p)
				}
			}
		}
	})

	cases := []struct {
		name   string
		parent []int
		skip   []bool
		want   []int
	}{
		// BS = 7. Leaves 3..6 seed the queue in index order; 1 and 2
		// join as their last child is popped, then 0.
		{"fifo", []int{7, 0, 0, 1, 1, 2, 7}, nil, []int{3, 4, 5, 6, 1, 2, 0}},
		// Skipped 2 adds nothing to 0's count (so 0 follows 1 alone)
		// but is ordered after its active child 3; skipped, childless 4
		// is never ordered.
		{"skip", []int{5, 0, 0, 2, -1}, []bool{false, false, true, false, true}, []int{1, 3, 0, 2}},
		// -1, n and anything beyond n all mark roots.
		{"roots", []int{-1, 0, 5, 2, 9}, nil, []int{1, 3, 4, 0, 2}},
		// 0 -> 1 -> 2 -> 0 never drains: only 3 and 4 are ordered.
		{"cycle", []int{1, 2, 0, 0, 5}, nil, []int{3, 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := LeavesFirst(c.parent, c.skip, nil, nil); !slices.Equal(got, c.want) {
				t.Errorf("LeavesFirst = %v, want %v", got, c.want)
			}
			// Dirty, oversized buffers give the same order.
			order := []int{9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
			pending := []int{-3, 7, 2, 5, 1, 1, 1, 1, 1, 1, 1}
			if got := LeavesFirst(c.parent, c.skip, order, pending); !slices.Equal(got, c.want) {
				t.Errorf("LeavesFirst with dirty buffers = %v, want %v", got, c.want)
			}
		})
	}

	t.Run("no allocations with warm buffers", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		const n = 500
		parent := randomForest(rng, n)
		skip := make([]bool, n)
		for u := range skip {
			skip[u] = rng.Intn(10) == 0
		}
		order, pending := make([]int, 0, n), make([]int, n)
		for _, mask := range [][]bool{nil, skip} {
			allocs := testing.AllocsPerRun(20, func() {
				order = LeavesFirst(parent, mask, order, pending)
			})
			if allocs != 0 {
				t.Errorf("skip=%v: %v allocs per call, want 0", mask != nil, allocs)
			}
		}
	})
}
