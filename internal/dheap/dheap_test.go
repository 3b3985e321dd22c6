package dheap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func TestNewPanicsOnBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for arity 1")
		}
	}()
	New[int](1, intLess)
}

func TestNewPanicsOnNilLess(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil less")
		}
	}()
	New[int](2, nil)
}

func TestEmptyHeap(t *testing.T) {
	h := New(2, intLess)
	if h.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", h.Len())
	}
	if _, ok := h.Peek(); ok {
		t.Error("Peek on empty heap reported ok")
	}
	if _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap reported ok")
	}
}

func TestPushPopSortsBinary(t *testing.T) { testPushPopSorts(t, 2) }
func TestPushPopSortsOctonary(t *testing.T) {
	testPushPopSorts(t, 8)
}
func TestPushPopSortsTernary(t *testing.T) { testPushPopSorts(t, 3) }

func testPushPopSorts(t *testing.T, d int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	h := New(d, intLess)
	const n = 1000
	want := make([]int, n)
	for i := range want {
		v := rng.Intn(500) // duplicates on purpose
		want[i] = v
		h.Push(v)
	}
	sort.Ints(want)
	for i, w := range want {
		got, ok := h.Pop()
		if !ok {
			t.Fatalf("heap exhausted at %d", i)
		}
		if got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len() = %d after draining, want 0", h.Len())
	}
}

func TestReplaceRoot(t *testing.T) {
	h := New(8, intLess)
	for _, v := range []int{5, 3, 8, 1, 9, 2} {
		h.Push(v)
	}
	h.ReplaceRoot(7)
	got := h.Drain()
	want := []int{2, 3, 5, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("Drain() len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestReplaceRootEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, intLess).ReplaceRoot(1)
}

func TestReset(t *testing.T) {
	h := New(4, intLess)
	for i := 0; i < 10; i++ {
		h.Push(i)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len() = %d after Reset, want 0", h.Len())
	}
	h.Push(3)
	h.Push(1)
	if v, _ := h.Peek(); v != 1 {
		t.Fatalf("Peek() = %d after reuse, want 1", v)
	}
}

// TestHeapPropertyQuick verifies via property testing that for any input
// sequence and any arity in {2,3,4,8}, popping yields a sorted permutation
// of the input.
func TestHeapPropertyQuick(t *testing.T) {
	prop := func(values []int16, aritySeed uint8) bool {
		d := []int{2, 3, 4, 8}[int(aritySeed)%4]
		h := New(d, intLess)
		want := make([]int, len(values))
		for i, v := range values {
			want[i] = int(v)
			h.Push(int(v))
		}
		sort.Ints(want)
		got := h.Drain()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHeapInvariantAfterMixedOps checks the structural heap invariant after
// an arbitrary interleaving of pushes and pops.
func TestHeapInvariantAfterMixedOps(t *testing.T) {
	prop := func(ops []int16) bool {
		h := New(8, intLess)
		for _, op := range ops {
			if op%3 == 0 && h.Len() > 0 {
				h.Pop()
			} else {
				h.Push(int(op))
			}
		}
		items := h.items
		for i := 1; i < len(items); i++ {
			parent := (i - 1) / 8
			if intLess(items[i], items[parent]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBoundedKeepsLargest(t *testing.T) {
	b := NewBounded(8, 3, intLess)
	for _, v := range []int{5, 1, 9, 3, 7, 2, 8} {
		b.Offer(v)
	}
	got := b.DrainDescending()
	want := []int{9, 8, 7}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DrainDescending()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBoundedOfferReturnValue(t *testing.T) {
	b := NewBounded(2, 2, intLess)
	if !b.Offer(5) || !b.Offer(3) {
		t.Fatal("offers into spare capacity must be kept")
	}
	if b.Offer(1) {
		t.Error("offer weaker than root must be rejected when full")
	}
	if !b.Offer(10) {
		t.Error("offer stronger than root must be kept when full")
	}
	if b.h.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", b.h.Len())
	}
}

func TestBoundedCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cap 0")
		}
	}()
	NewBounded[int](2, 0, intLess)
}

func TestBoundedReset(t *testing.T) {
	b := NewBounded(2, 4, intLess)
	b.Offer(1)
	b.Reset()
	if b.h.Len() != 0 {
		t.Fatalf("Len() = %d after Reset, want 0", b.h.Len())
	}
	if b.cap != 4 {
		t.Fatalf("Cap() = %d after Reset, want 4", b.cap)
	}
}

// TestBoundedTopKProperty: for random input, the bounded heap retains
// exactly the k largest values.
func TestBoundedTopKProperty(t *testing.T) {
	prop := func(values []int16, kSeed uint8) bool {
		if len(values) == 0 {
			return true
		}
		k := int(kSeed)%8 + 1
		b := NewBounded(8, k, intLess)
		ints := make([]int, len(values))
		for i, v := range values {
			ints[i] = int(v)
			b.Offer(int(v))
		}
		sort.Sort(sort.Reverse(sort.IntSlice(ints)))
		if k > len(ints) {
			k = len(ints)
		}
		got := b.DrainDescending()
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got[i] != ints[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPushPopBinary(b *testing.B)   { benchPushPop(b, 2) }
func BenchmarkPushPopOctonary(b *testing.B) { benchPushPop(b, 8) }

func benchPushPop(b *testing.B, d int) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int, 4096)
	for i := range vals {
		vals[i] = rng.Int()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewWithCapacity(d, len(vals), intLess)
		for _, v := range vals {
			h.Push(v)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}

func TestBoundedResetWithCap(t *testing.T) {
	b := NewBounded(4, 3, func(a, b int) bool { return a < b })
	for i := 0; i < 10; i++ {
		b.Offer(i)
	}
	if b.h.Len() != 3 || b.cap != 3 {
		t.Fatalf("len/cap = %d/%d, want 3/3", b.h.Len(), b.cap)
	}
	// Grow: previous contents dropped, new bound honoured.
	b.ResetWithCap(5)
	if b.h.Len() != 0 || b.cap != 5 {
		t.Fatalf("after grow: len/cap = %d/%d, want 0/5", b.h.Len(), b.cap)
	}
	for i := 0; i < 10; i++ {
		b.Offer(i)
	}
	if got := b.DrainDescending(); len(got) != 5 || got[0] != 9 || got[4] != 5 {
		t.Errorf("after grow: drained %v, want [9 8 7 6 5]", got)
	}
	// Shrink: storage reused, bound honoured.
	b.ResetWithCap(2)
	if b.cap != 2 {
		t.Fatalf("after shrink: cap = %d, want 2", b.cap)
	}
	for i := 0; i < 10; i++ {
		b.Offer(i)
	}
	if got := b.DrainDescending(); len(got) != 2 || got[0] != 9 || got[1] != 8 {
		t.Errorf("after shrink: drained %v, want [9 8]", got)
	}
	// Shrinking and re-growing within previously allocated storage must
	// not allocate.
	b.ResetWithCap(5)
	allocs := testing.AllocsPerRun(100, func() {
		b.ResetWithCap(2)
		b.Offer(1)
		b.ResetWithCap(5)
		b.Offer(1)
		b.Reset()
	})
	if allocs != 0 {
		t.Errorf("ResetWithCap within existing storage allocates %.1f times, want 0", allocs)
	}
}

func TestBoundedResetWithCapPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ResetWithCap(0) did not panic")
		}
	}()
	NewBounded(2, 1, func(a, b int) bool { return a < b }).ResetWithCap(0)
}
