// Package dheap implements generic d-ary heaps.
//
// A d-ary heap is a complete d-ary tree stored in a slice where every node
// orders before its children. Compared to a binary heap, a wider heap (the
// paper uses d=8, an "octonary" heap) performs fewer levels of sifting on
// insertion at the cost of more comparisons on removal, which pays off for
// insertion-heavy workloads such as the recency heap b_t and the top-k heap
// N_s in VMIS-kNN.
package dheap

// Heap is a d-ary heap over elements of type E. The zero value is not usable;
// construct heaps with New. The heap is a min-heap with respect to the less
// function: the root (Peek) is the element that orders before all others.
// A max-heap is obtained by inverting less.
type Heap[E any] struct {
	d     int
	less  func(a, b E) bool
	items []E
}

// New returns an empty d-ary heap ordered by less. It panics if d < 2 or
// less is nil.
func New[E any](d int, less func(a, b E) bool) *Heap[E] {
	if d < 2 {
		panic("dheap: arity must be at least 2")
	}
	if less == nil {
		panic("dheap: nil less function")
	}
	return &Heap[E]{d: d, less: less}
}

// NewWithCapacity returns an empty heap with storage preallocated for n
// elements.
func NewWithCapacity[E any](d int, n int, less func(a, b E) bool) *Heap[E] {
	h := New(d, less)
	h.items = make([]E, 0, n)
	return h
}

// Len reports the number of elements in the heap.
func (h *Heap[E]) Len() int { return len(h.items) }

// Push inserts x into the heap in O(log_d n) time.
func (h *Heap[E]) Push(x E) {
	h.items = append(h.items, x)
	h.siftUp(len(h.items) - 1)
}

// Peek returns the root element without removing it. The second result is
// false if the heap is empty.
func (h *Heap[E]) Peek() (E, bool) {
	if len(h.items) == 0 {
		var zero E
		return zero, false
	}
	return h.items[0], true
}

// Pop removes and returns the root element. The second result is false if
// the heap is empty.
func (h *Heap[E]) Pop() (E, bool) {
	if len(h.items) == 0 {
		var zero E
		return zero, false
	}
	root := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero E
	h.items[last] = zero // release references for the garbage collector
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return root, true
}

// ReplaceRoot replaces the root element with x and restores heap order.
// It is equivalent to but cheaper than Pop followed by Push. It panics if
// the heap is empty.
func (h *Heap[E]) ReplaceRoot(x E) {
	if len(h.items) == 0 {
		panic("dheap: ReplaceRoot on empty heap")
	}
	h.items[0] = x
	h.siftDown(0)
}

// Reset removes all elements but keeps the allocated storage for reuse.
func (h *Heap[E]) Reset() {
	var zero E
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

// Drain removes and returns all elements in heap order (root first).
func (h *Heap[E]) Drain() []E {
	out := make([]E, 0, len(h.items))
	for {
		e, ok := h.Pop()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func (h *Heap[E]) siftUp(i int) {
	item := h.items[i]
	for i > 0 {
		parent := (i - 1) / h.d
		if !h.less(item, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = item
}

func (h *Heap[E]) siftDown(i int) {
	n := len(h.items)
	item := h.items[i]
	for {
		first := i*h.d + 1
		if first >= n {
			break
		}
		best := first
		last := first + h.d
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(h.items[c], h.items[best]) {
				best = c
			}
		}
		if !h.less(h.items[best], item) {
			break
		}
		h.items[i] = h.items[best]
		i = best
	}
	h.items[i] = item
}

// Bounded is a d-ary heap that retains at most Cap elements: when full,
// pushing an element that orders after the root replaces the root, and
// pushing one that orders before the root is a no-op. With a min-ordering
// less function it therefore keeps the Cap largest elements seen, which is
// exactly the top-k selection pattern of Algorithm 2 in the paper.
type Bounded[E any] struct {
	h   *Heap[E]
	cap int
}

// NewBounded returns a bounded heap with capacity cap and arity d, ordered
// by less (min-first). It panics if cap < 1.
func NewBounded[E any](d, cap int, less func(a, b E) bool) *Bounded[E] {
	if cap < 1 {
		panic("dheap: bounded heap capacity must be at least 1")
	}
	return &Bounded[E]{h: NewWithCapacity(d, cap, less), cap: cap}
}

// Offer considers x for retention. It reports whether x was kept (either
// inserted into spare capacity or replacing the current root).
func (b *Bounded[E]) Offer(x E) bool {
	if b.h.Len() < b.cap {
		b.h.Push(x)
		return true
	}
	root, _ := b.h.Peek()
	if b.h.less(root, x) {
		b.h.ReplaceRoot(x)
		return true
	}
	return false
}

// Reset removes all elements but keeps allocated storage.
func (b *Bounded[E]) Reset() { b.h.Reset() }

// ResetWithCap empties the heap and changes its retention capacity, growing
// the underlying storage only when the new capacity exceeds what is already
// allocated. Callers whose bound varies between uses (e.g. a recommendation
// list length chosen per request) reuse one heap instead of discarding it
// whenever the bound changes. It panics if cap < 1.
func (b *Bounded[E]) ResetWithCap(cap int) {
	if cap < 1 {
		panic("dheap: bounded heap capacity must be at least 1")
	}
	b.h.Reset()
	b.h.items = growSlice(b.h.items, cap)
	b.cap = cap
}

// growSlice returns s (length 0) with capacity at least n, reallocating only
// when needed.
func growSlice[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]E, 0, n)
}

// DrainDescending removes and returns all retained elements ordered from
// strongest to weakest (reverse heap order).
func (b *Bounded[E]) DrainDescending() []E {
	out := b.h.Drain()
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
