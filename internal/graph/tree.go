package graph

// LeavesFirst returns the vertices of the forest given by parent in
// leaves-first (children before parents) order: Kahn's algorithm with a
// FIFO queue seeded by the childless vertices in ascending index order.
// parent[u] is u's parent; an entry outside [0, len(parent)) — the base
// station, or -1 — makes u a root.
//
// skip, when non-nil, excludes vertices: a skipped vertex adds nothing
// to its parent's child count and never starts the order as a leaf.
// Callers keep skipped vertices childless (no active vertex routes into
// one); then every skipped vertex is left out and the children-before-
// parents guarantee holds for the rest. A skipped vertex that does have
// active children is still ordered once they all are, but as it was
// never counted, its parent may come before it, or before the parent's
// other children.
//
// The order is written over order[:0] and returned; pending is the
// per-vertex child-count scratch. Each is reused when its capacity
// reaches len(parent) and allocated once otherwise, so a caller holding
// both allocates nothing. A cycle leaves its vertices (and everything
// upstream of them) unordered, so the result is shorter than the active
// vertex count.
func LeavesFirst(parent []int, skip []bool, order, pending []int) []int {
	n := len(parent)
	if cap(pending) < n {
		pending = make([]int, n)
	}
	pending = pending[:n]
	clear(pending)
	for u, p := range parent {
		if (skip == nil || !skip[u]) && p >= 0 && p < n {
			pending[p]++
		}
	}
	if cap(order) < n {
		order = make([]int, 0, n)
	}
	order = order[:0]
	for u := 0; u < n; u++ {
		if (skip == nil || !skip[u]) && pending[u] == 0 {
			order = append(order, u)
		}
	}
	for head := 0; head < len(order); head++ {
		if p := parent[order[head]]; p >= 0 && p < n {
			if pending[p]--; pending[p] == 0 {
				order = append(order, p)
			}
		}
	}
	return order
}
