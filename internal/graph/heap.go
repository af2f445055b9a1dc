package graph

// IndexedMinHeap is a binary min-heap over the integer keys 0..n-1 with
// float64 priorities and O(log n) decrease-key, the classic companion
// structure for Dijkstra. Entries are ordered by (priority, key), a
// strict total order, so the pop sequence is fully determined by the
// pushes — independent of the heap's internal layout. The zero value is
// not usable; construct with NewIndexedMinHeap.
type IndexedMinHeap struct {
	// heap[i] is the entry at heap slot i. Priorities live in the slots
	// themselves, so a comparison reads one contiguous entry instead of
	// chasing the key into a separate priority array.
	heap []heapEntry
	pos  []int // pos[key] = slot of key in heap, or -1 when absent
}

type heapEntry struct {
	prio float64
	key  int
}

// before reports whether a sorts ahead of b: lower priority first,
// ties broken on key for a fully deterministic pop order.
func (a heapEntry) before(b heapEntry) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.key < b.key
}

// NewIndexedMinHeap returns an empty heap over keys 0..n-1.
func NewIndexedMinHeap(n int) *IndexedMinHeap {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	return &IndexedMinHeap{
		heap: make([]heapEntry, 0, n),
		pos:  pos,
	}
}

// Len returns the number of keys currently in the heap.
func (h *IndexedMinHeap) Len() int { return len(h.heap) }

// Contains reports whether key is currently in the heap.
func (h *IndexedMinHeap) Contains(key int) bool { return h.pos[key] >= 0 }

// Push inserts key with the given priority, or lowers/raises its priority
// if already present (a combined insert/update, convenient for Dijkstra's
// relax step).
func (h *IndexedMinHeap) Push(key int, priority float64) {
	if i := h.pos[key]; i >= 0 {
		old := h.heap[i].prio
		h.heap[i].prio = priority
		if priority < old {
			h.siftUp(i)
		} else if priority > old {
			h.siftDown(i)
		}
		return
	}
	h.heap = append(h.heap, heapEntry{prio: priority, key: key})
	h.siftUp(len(h.heap) - 1)
}

// Reset empties the heap in O(len) so it can be reused for a fresh run
// without reallocating.
func (h *IndexedMinHeap) Reset() {
	for _, e := range h.heap {
		h.pos[e.key] = -1
	}
	h.heap = h.heap[:0]
}

// Pop removes and returns the key with the minimum priority and that
// priority. It must not be called on an empty heap.
func (h *IndexedMinHeap) Pop() (key int, priority float64) {
	top := h.heap[0]
	h.pos[top.key] = -1
	last := len(h.heap) - 1
	if last > 0 {
		h.heap[0] = h.heap[last]
		h.heap = h.heap[:last]
		h.siftDown(0)
	} else {
		h.heap = h.heap[:0]
	}
	return top.key, top.prio
}

// siftUp moves the entry at slot i towards the root, shifting each
// parent it passes down one level and writing the entry once at its
// final slot.
func (h *IndexedMinHeap) siftUp(i int) {
	hp := h.heap
	e := hp[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := hp[parent]
		if !e.before(p) {
			break
		}
		hp[i] = p
		h.pos[p.key] = i
		i = parent
	}
	hp[i] = e
	h.pos[e.key] = i
}

// siftDown moves the entry at slot i towards the leaves, shifting the
// smaller child up at each level and writing the entry once at its
// final slot.
func (h *IndexedMinHeap) siftDown(i int) {
	hp := h.heap
	n := len(hp)
	e := hp[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && hp[r].before(hp[c]) {
			c = r
		}
		if !hp[c].before(e) {
			break
		}
		hp[i] = hp[c]
		h.pos[hp[i].key] = i
		i = c
	}
	hp[i] = e
	h.pos[e.key] = i
}
