package heal

import (
	"testing"

	"wrsn/internal/model"
)

// benchRepair prices one online repair on a 30-post chain with one dead
// post mid-line, against a persistent Healer. Both arms — the
// merge-disabled hot path and the merge arm with its degraded-cost
// price-off — are CI-gated at 0 allocs/op.
func benchRepair(b *testing.B, opts Options) {
	const n, m = 30, 90
	p, tree := lineProblem(b, n, m)
	h, err := NewHealer(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	alive := make([]int, n)
	for i := range alive {
		alive[i] = m / n
	}
	alive[7] = 0 // dead post: its subtree re-attaches around the gap
	var dst model.Tree
	if _, err := h.Repair(tree, alive, &dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Repair(tree, alive, &dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepairTree(b *testing.B) {
	benchRepair(b, Options{DisableSiblingMerge: true})
}

func BenchmarkRepairTreeMerge(b *testing.B) {
	benchRepair(b, Options{})
}
