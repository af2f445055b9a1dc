package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHeapBasicOrdering(t *testing.T) {
	h := NewIndexedMinHeap(5)
	h.Push(0, 3)
	h.Push(1, 1)
	h.Push(2, 2)
	var keys []int
	var prios []float64
	for h.Len() > 0 {
		k, p := h.Pop()
		keys = append(keys, k)
		prios = append(prios, p)
	}
	wantKeys := []int{1, 2, 0}
	for i := range wantKeys {
		if keys[i] != wantKeys[i] {
			t.Fatalf("pop order %v, want %v", keys, wantKeys)
		}
	}
	if !sort.Float64sAreSorted(prios) {
		t.Fatalf("priorities not ascending: %v", prios)
	}
}

func TestHeapDecreaseKey(t *testing.T) {
	h := NewIndexedMinHeap(3)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.Push(2, 1) // decrease
	if k, p := h.Pop(); k != 2 || p != 1 {
		t.Fatalf("got (%d, %v), want (2, 1)", k, p)
	}
	h.Push(0, 50) // increase
	if k, _ := h.Pop(); k != 1 {
		t.Fatalf("after increasing key 0, want 1 first, got %d", k)
	}
}

func TestHeapContains(t *testing.T) {
	h := NewIndexedMinHeap(2)
	if h.Contains(0) {
		t.Error("empty heap contains 0")
	}
	h.Push(0, 1)
	if !h.Contains(0) {
		t.Error("heap lost key 0")
	}
	h.Pop()
	if h.Contains(0) {
		t.Error("popped key still contained")
	}
}

func TestHeapDeterministicTieBreak(t *testing.T) {
	h := NewIndexedMinHeap(4)
	for _, k := range []int{3, 1, 2, 0} {
		h.Push(k, 7)
	}
	for want := 0; want < 4; want++ {
		if k, _ := h.Pop(); k != want {
			t.Fatalf("tie-break pop = %d, want %d", k, want)
		}
	}
}

// TestHeapAgainstSort drives the heap with random push/update/pop
// sequences and checks every pop against a reference re-sort.
func TestHeapAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(64)
		h := NewIndexedMinHeap(n)
		ref := map[int]float64{}
		ops := 200
		for op := 0; op < ops; op++ {
			switch {
			case rng.Float64() < 0.6 || len(ref) == 0:
				k := rng.Intn(n)
				p := rng.Float64() * 100
				h.Push(k, p)
				ref[k] = p
			default:
				// Pop and verify minimality.
				k, p := h.Pop()
				want, ok := ref[k]
				if !ok {
					t.Fatalf("popped key %d not in reference", k)
				}
				if want != p {
					t.Fatalf("popped priority %v, reference has %v", p, want)
				}
				for rk, rp := range ref {
					if rp < p || (rp == p && rk < k) {
						t.Fatalf("pop (%d,%v) was not minimal: (%d,%v) present", k, p, rk, rp)
					}
				}
				delete(ref, k)
			}
		}
		if h.Len() != len(ref) {
			t.Fatalf("length mismatch: heap %d vs reference %d", h.Len(), len(ref))
		}
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(1))
	prios := make([]float64, n)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewIndexedMinHeap(n)
		for k := 0; k < n; k++ {
			h.Push(k, prios[k])
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}

// BenchmarkIndexedMinHeapKernel measures the push/pop cycle on one warm
// heap reused via Reset, the pattern the evaluator's repair loop runs.
// The CI alloc gate requires 0 allocs/op.
func BenchmarkIndexedMinHeapKernel(b *testing.B) {
	const n = 256
	h := NewIndexedMinHeap(n)
	rng := rand.New(rand.NewSource(2))
	prios := make([]float64, n)
	for i := range prios {
		prios[i] = 1 + rng.Float64()*63
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for k := 0; k < n; k++ {
			h.Push(k, prios[k])
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}
