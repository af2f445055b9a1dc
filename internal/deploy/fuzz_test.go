package deploy

import (
	"math"
	"testing"
)

// FuzzAllocate checks the allocator's invariants (sum preserved, floor of
// one node everywhere, no panics) on arbitrary weight vectors.
func FuzzAllocate(f *testing.F) {
	f.Add([]byte{10, 20, 30}, uint16(10))
	f.Add([]byte{0, 0, 0, 0}, uint16(4))
	f.Add([]byte{255}, uint16(1))
	f.Fuzz(func(t *testing.T, rawWeights []byte, rawTotal uint16) {
		if len(rawWeights) == 0 || len(rawWeights) > 64 {
			return
		}
		weights := make([]float64, len(rawWeights))
		for i, b := range rawWeights {
			weights[i] = float64(b) * float64(b) / 7.0
		}
		total := len(weights) + int(rawTotal%512)
		m, err := Allocate(weights, total)
		if err != nil {
			t.Fatalf("Allocate(%v, %d) failed: %v", weights, total, err)
		}
		sum := 0
		for i, v := range m {
			if v < 1 {
				t.Fatalf("post %d starved in %v (weights %v, total %d)", i, m, weights, total)
			}
			sum += v
		}
		if sum != total {
			t.Fatalf("allocated %d of %d (weights %v)", sum, total, weights)
		}
		// The allocation's objective is finite and non-negative.
		var obj float64
		for i, w := range weights {
			obj += w / float64(m[i])
		}
		if math.IsNaN(obj) || math.IsInf(obj, 0) || obj < 0 {
			t.Fatalf("degenerate objective %v", obj)
		}
	})
}
