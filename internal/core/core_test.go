package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"serenade/internal/sessions"
)

// buildDataset makes a renumbered dataset from item lists with strictly
// increasing session timestamps.
func buildDataset(t *testing.T, itemLists [][]sessions.ItemID) *sessions.Dataset {
	t.Helper()
	return datasetFromLists(itemLists)
}

func datasetFromLists(itemLists [][]sessions.ItemID) *sessions.Dataset {
	var ss []sessions.Session
	base := int64(1000)
	for i, items := range itemLists {
		times := make([]int64, len(items))
		for j := range times {
			times[j] = base + int64(i)*100 + int64(j)
		}
		ss = append(ss, sessions.Session{ID: sessions.SessionID(i), Items: items, Times: times})
	}
	return sessions.FromSessions("test", ss)
}

func mustIndex(t *testing.T, ds *sessions.Dataset, capacity int) *Index {
	t.Helper()
	idx, err := BuildIndex(ds, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func mustRecommender(t *testing.T, idx *Index, p Params) *Recommender {
	t.Helper()
	r, err := NewRecommender(idx, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDecayFunctions(t *testing.T) {
	if got := LinearDecay(3, 3); got != 1.0 {
		t.Errorf("LinearDecay(3,3) = %v, want 1", got)
	}
	if got := LinearDecay(1, 3); math.Abs(got-1.0/3) > 1e-15 {
		t.Errorf("LinearDecay(1,3) = %v, want 1/3", got)
	}
	if LinearDecay(1, 0) != 0 || QuadraticDecay(1, 0) != 0 {
		t.Error("decay with zero length must be 0")
	}
	if got := QuadraticDecay(2, 4); got != 0.25 {
		t.Errorf("QuadraticDecay(2,4) = %v, want 0.25", got)
	}
}

func TestMatchWeightPaperToyExample(t *testing.T) {
	// §2: λ(3) = 1 − 0.1·3 = 0.7.
	if got := LinearMatchWeight(3); math.Abs(got-0.7) > 1e-15 {
		t.Errorf("λ(3) = %v, want 0.7", got)
	}
	if got := LinearMatchWeight(10); got != 0 {
		t.Errorf("λ(10) = %v, want 0", got)
	}
	if got := ConstantMatchWeight(99); got != 1 {
		t.Errorf("constant λ = %v, want 1", got)
	}
}

func TestParamsValidate(t *testing.T) {
	valid := Params{M: 100, K: 50}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	for _, p := range []Params{
		{M: 0, K: 1},
		{M: 10, K: 0},
		{M: 10, K: 11}, // k > m
		{M: 10, K: 5, MaxSessionLength: maxHeads + 1},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v accepted, want error", p)
		}
	}
	// A head mask holds one bit per distinct tail item: 16 is the cap.
	if err := (Params{M: 10, K: 5, MaxSessionLength: maxHeads}).Validate(); err != nil {
		t.Errorf("MaxSessionLength %d rejected: %v", maxHeads, err)
	}
	if err := (Params{M: 10, K: 5, MaxSessionLength: maxHeads + 1}).Validate(); !errors.Is(err, ErrMaxSessionLength) {
		t.Errorf("MaxSessionLength %d: Validate = %v, want ErrMaxSessionLength", maxHeads+1, err)
	}
}

// TestReferenceWalkValidate: the walk's heap arity is checked where the
// walk is built, and the oracle takes at most one Walk.
func TestReferenceWalkValidate(t *testing.T) {
	idx := mustIndex(t, buildDataset(t, [][]sessions.ItemID{{1, 2}, {2, 3}}), 0)
	p := Params{M: 10, K: 5}
	for _, w := range []Walk{{}, {HeapArity: 2}, {HeapArity: 8, DisableEarlyStopping: true}} {
		if _, err := NewReferenceRecommender(idx, p, w); err != nil {
			t.Errorf("walk %+v rejected: %v", w, err)
		}
	}
	for _, w := range []Walk{{HeapArity: 1}, {HeapArity: -1}} {
		if _, err := NewReferenceRecommender(idx, p, w); err == nil {
			t.Errorf("walk %+v accepted, want error", w)
		}
	}
	if _, err := NewReferenceRecommender(idx, p, Walk{}, Walk{}); err == nil {
		t.Error("two walks accepted, want error")
	}
}

func TestBuildIndexRequiresDenseIDs(t *testing.T) {
	ds := sessions.FromSessions("bad", []sessions.Session{
		{ID: 5, Items: []sessions.ItemID{1}, Times: []int64{10}},
	})
	if _, err := BuildIndex(ds, 0); err == nil {
		t.Error("expected error for non-dense ids")
	}
}

func TestBuildIndexRequiresAscendingTimes(t *testing.T) {
	ds := sessions.FromSessions("bad", []sessions.Session{
		{ID: 0, Items: []sessions.ItemID{1}, Times: []int64{100}},
		{ID: 1, Items: []sessions.ItemID{1}, Times: []int64{50}},
	})
	if _, err := BuildIndex(ds, 0); err == nil {
		t.Error("expected error for descending session times")
	}
}

func TestBuildIndexPostingsDescendingAndTruncated(t *testing.T) {
	// Item 7 occurs in sessions 0,1,2,3 (ascending time).
	lists := [][]sessions.ItemID{{7, 1}, {7}, {7, 2}, {7}}
	idx := mustIndex(t, buildDataset(t, lists), 2)
	got := idx.Postings(7)
	want := []sessions.SessionID{3, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("postings(7) = %v, want %v (most recent first, truncated)", got, want)
	}
	if idx.DF(7) != 4 {
		t.Errorf("DF(7) = %d, want full count 4 despite truncation", idx.DF(7))
	}
	if want := math.Log(4.0 / 4.0); idx.IDF(7) != want {
		t.Errorf("IDF(7) = %v, want %v", idx.IDF(7), want)
	}
	if want := math.Log(4.0 / 1.0); math.Abs(idx.IDF(1)-want) > 1e-15 {
		t.Errorf("IDF(1) = %v, want %v", idx.IDF(1), want)
	}
}

func TestBuildIndexDeduplicatesWithinSession(t *testing.T) {
	idx := mustIndex(t, buildDataset(t, [][]sessions.ItemID{{5, 5, 5, 6}}), 0)
	if got := idx.Postings(5); len(got) != 1 {
		t.Errorf("postings(5) = %v, want single entry for duplicated item", got)
	}
	if got := idx.SessionItems(0); !reflect.DeepEqual(got, []sessions.ItemID{5, 6}) {
		t.Errorf("SessionItems(0) = %v, want [5 6]", got)
	}
	if idx.DF(5) != 1 {
		t.Errorf("DF(5) = %d, want 1", idx.DF(5))
	}
}

func TestIndexAccessorsOutOfRange(t *testing.T) {
	idx := mustIndex(t, buildDataset(t, [][]sessions.ItemID{{1}}), 0)
	if idx.Postings(999) != nil {
		t.Error("Postings of unknown item must be nil")
	}
	if idx.DF(999) != 0 || idx.IDF(999) != 0 {
		t.Error("DF/IDF of unknown item must be 0")
	}
	if idx.MemoryFootprint() <= 0 {
		t.Error("MemoryFootprint must be positive")
	}
}

// TestPaperToyExample reproduces the §2 worked example: evolving session
// with items [1,2,4] against a historical session [2,4] has similarity
// π-weighted dot product 2/3 + 3/3 = 5/3 and match position 3 (λ = 0.7).
func TestPaperToyExample(t *testing.T) {
	ds := buildDataset(t, [][]sessions.ItemID{
		{2, 4},    // session 0 = h
		{9, 8, 7}, // filler so idf > 0 for items 2 and 4
	})
	idx := mustIndex(t, ds, 0)
	r := mustRecommender(t, idx, Params{M: 10, K: 10})

	neighbors := r.NeighborSessions([]sessions.ItemID{1, 2, 4})
	if len(neighbors) != 1 {
		t.Fatalf("neighbors = %d, want 1", len(neighbors))
	}
	nb := neighbors[0]
	if nb.ID != 0 {
		t.Errorf("neighbor id = %d, want 0", nb.ID)
	}
	if want := 2.0/3.0 + 3.0/3.0; math.Abs(nb.Score-want) > 1e-12 {
		t.Errorf("similarity = %v, want 5/3", nb.Score)
	}
	if nb.MaxPos != 3 {
		t.Errorf("match position = %d, want 3", nb.MaxPos)
	}

	recs := r.Recommend([]sessions.ItemID{1, 2, 4}, 10)
	if len(recs) != 2 {
		t.Fatalf("recommendations = %v, want items 2 and 4", recs)
	}
	// d_i = λ(3) · (5/3) · log(2/1) for both items; ties order by item id.
	want := 0.7 * (5.0 / 3.0) * math.Log(2.0)
	for _, rec := range recs {
		if math.Abs(rec.Score-want) > 1e-12 {
			t.Errorf("score(%d) = %v, want %v", rec.Item, rec.Score, want)
		}
	}
	if recs[0].Item != 2 || recs[1].Item != 4 {
		t.Errorf("tie order = [%d %d], want [2 4]", recs[0].Item, recs[1].Item)
	}
}

func TestRecommendEmptyInputs(t *testing.T) {
	idx := mustIndex(t, buildDataset(t, [][]sessions.ItemID{{1, 2}, {2, 3}}), 0)
	r := mustRecommender(t, idx, Params{M: 10, K: 5})
	if got := r.Recommend(nil, 5); got != nil {
		t.Errorf("Recommend(nil) = %v, want nil", got)
	}
	if got := r.Recommend([]sessions.ItemID{1}, 0); got != nil {
		t.Errorf("Recommend(n=0) = %v, want nil", got)
	}
	if got := r.Recommend([]sessions.ItemID{999}, 5); got != nil {
		t.Errorf("Recommend(unknown item) = %v, want nil", got)
	}
}

func TestRecommendExcludesZeroIDF(t *testing.T) {
	// Item 1 occurs in every session -> idf = 0 -> never recommended.
	ds := buildDataset(t, [][]sessions.ItemID{{1, 2}, {1, 3}, {1, 4}})
	idx := mustIndex(t, ds, 0)
	r := mustRecommender(t, idx, Params{M: 10, K: 10})
	for _, rec := range r.Recommend([]sessions.ItemID{2}, 10) {
		if rec.Item == 1 {
			t.Error("item with zero idf was recommended")
		}
	}
}

func TestRecencyEviction(t *testing.T) {
	// Five sessions contain item 1; with M=2 only the two most recent
	// (ids 3 and 4) may be neighbours.
	lists := [][]sessions.ItemID{{1}, {1}, {1}, {1}, {1}, {9}}
	idx := mustIndex(t, buildDataset(t, lists), 0)
	r := mustRecommender(t, idx, Params{M: 2, K: 2})
	neighbors := r.NeighborSessions([]sessions.ItemID{1})
	if len(neighbors) != 2 {
		t.Fatalf("neighbors = %d, want 2", len(neighbors))
	}
	ids := map[sessions.SessionID]bool{neighbors[0].ID: true, neighbors[1].ID: true}
	if !ids[3] || !ids[4] {
		t.Errorf("neighbor ids = %v, want the most recent {3,4}", ids)
	}
}

func TestDuplicateEvolvingItemsUseMostRecentPosition(t *testing.T) {
	ds := buildDataset(t, [][]sessions.ItemID{{5}, {6}})
	idx := mustIndex(t, ds, 0)
	r := mustRecommender(t, idx, Params{M: 10, K: 10})
	// Item 5 at positions 1 and 3 of the evolving session; only position 3
	// (the most recent occurrence) must contribute: π(3,3) = 1.
	neighbors := r.NeighborSessions([]sessions.ItemID{5, 6, 5})
	for _, nb := range neighbors {
		if nb.ID == 0 {
			if math.Abs(nb.Score-1.0) > 1e-12 {
				t.Errorf("score = %v, want 1.0 (single contribution at pos 3)", nb.Score)
			}
			if nb.MaxPos != 3 {
				t.Errorf("maxPos = %d, want 3", nb.MaxPos)
			}
		}
	}
}

func TestMaxSessionLengthTruncation(t *testing.T) {
	ds := buildDataset(t, [][]sessions.ItemID{{1}, {2}})
	idx := mustIndex(t, ds, 0)
	r := mustRecommender(t, idx, Params{M: 10, K: 10, MaxSessionLength: 2})
	// Item 1 is pushed out of the 2-item window by [2, 3]: session 0 must
	// not match.
	neighbors := r.NeighborSessions([]sessions.ItemID{1, 2, 3})
	for _, nb := range neighbors {
		if nb.ID == 0 {
			t.Error("item outside the truncated window still matched")
		}
	}
}

// TestNoOptVariantSameResults: the Figure 3(a) "VMIS-kNN-no-opt" row (the
// reference walk on binary heaps without early stopping) and the kernel must
// recommend the same items, or the ablation compares different answers.
func TestNoOptVariantSameResults(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(3)), 200, 50)
	idx, err := BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := mustRecommender(t, idx, Params{M: 20, K: 10})
	noopt, err := NewReferenceRecommender(idx, Params{M: 20, K: 10}, Walk{HeapArity: 2, DisableEarlyStopping: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		evolving := randomEvolving(rng, 50)
		a := opt.Recommend(evolving, 21)
		b := noopt.Recommend(evolving, 21)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("optimised and no-opt variants disagree on %v:\n%v\nvs\n%v", evolving, a, b)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	idx := mustIndex(t, buildDataset(t, [][]sessions.ItemID{{1, 2}, {2, 3}}), 0)
	r := mustRecommender(t, idx, Params{M: 10, K: 5})
	c := r.Clone()
	if c == r {
		t.Fatal("Clone returned the same instance")
	}
	if c.Index() != r.Index() {
		t.Error("Clone must share the immutable index")
	}
	a := r.Recommend([]sessions.ItemID{2}, 5)
	b := c.Recommend([]sessions.ItemID{2}, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("clone returns different results")
	}
}

// TestCloneSharesNoMutableState audits the scratch-state sharing rule the
// serving pool relies on: it hands clones to concurrent requests, so a clone
// must share no mutable kernel state with its origin.
func TestCloneSharesNoMutableState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := mustIndex(t, randomDataset(rng, 150, 25), 0)
	rec := mustRecommender(t, idx, Params{M: 12, K: 6})
	clone := rec.Clone()
	if clone.acc == rec.acc || &clone.heads[:1][0] == &rec.heads[:1][0] || clone.sel == rec.sel {
		t.Fatal("Clone shares mutable kernel state with its origin")
	}
}

func TestNewRecommenderRejectsMBeyondCapacity(t *testing.T) {
	idx := mustIndex(t, buildDataset(t, [][]sessions.ItemID{{1}}), 5)
	if _, err := NewRecommender(idx, Params{M: 10, K: 5}); err == nil {
		t.Error("expected error when M exceeds index capacity")
	}
}

// newIndexFromParts flattens per-list slices into the CSR form, unvalidated,
// and builds the index through NewIndexFromCSR, the one validating
// constructor, so the tests below can hand it indexes that break one
// invariant.
func newIndexFromParts(times []int64, postings [][]sessions.SessionID, sessionItems [][]sessions.ItemID, df []int32) (*Index, error) {
	c := CSR{Times: times, DF: df, PostingOffsets: []uint32{0}, SessionItemOffsets: []uint32{0}}
	for _, list := range postings {
		c.PostingData = append(c.PostingData, list...)
		c.PostingOffsets = append(c.PostingOffsets, uint32(len(c.PostingData)))
	}
	for _, list := range sessionItems {
		c.SessionItemData = append(c.SessionItemData, list...)
		c.SessionItemOffsets = append(c.SessionItemOffsets, uint32(len(c.SessionItemData)))
	}
	return NewIndexFromCSR(c, 0, Arena{})
}

func TestNewIndexFromPartsValidation(t *testing.T) {
	times := []int64{100, 200}
	sessionItems := [][]sessions.ItemID{{0}, {0}}
	goodPostings := [][]sessions.SessionID{{1, 0}}
	df := []int32{2}
	if _, err := newIndexFromParts(times, goodPostings, sessionItems, df); err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	// length mismatch
	if _, err := newIndexFromParts(times, goodPostings, sessionItems, []int32{1, 2}); err == nil {
		t.Error("df length mismatch accepted")
	}
	if _, err := newIndexFromParts(times[:1], goodPostings, sessionItems, df); err == nil {
		t.Error("times length mismatch accepted")
	}
	// unknown session reference
	if _, err := newIndexFromParts(times, [][]sessions.SessionID{{7}}, sessionItems, df); err == nil {
		t.Error("dangling session reference accepted")
	}
	// wrong order
	if _, err := newIndexFromParts(times, [][]sessions.SessionID{{0, 1}}, sessionItems, df); err == nil {
		t.Error("ascending posting order accepted")
	}
}

// TestNewIndexRejectsMergeViolations pins the load-time preconditions of
// the candidate merge, which reads "larger id" as "more recent": timestamps
// must not decrease in session id, and every posting list must be strictly
// descending by id. Each case below passes a timestamp-only order check.
func TestNewIndexRejectsMergeViolations(t *testing.T) {
	items := [][]sessions.ItemID{{0}, {0, 1}}
	for _, tc := range []struct {
		name     string
		times    []int64
		postings [][]sessions.SessionID
		df       []int32
	}{
		{"times decrease in id", []int64{200, 100}, [][]sessions.SessionID{{0}, {1}}, []int32{1, 1}},
		{"repeated posting id", []int64{100, 200}, [][]sessions.SessionID{{1, 1}, {1}}, []int32{2, 1}},
		{"ascending ids at equal times", []int64{100, 100}, [][]sessions.SessionID{{0, 1}, {1}}, []int32{2, 1}},
	} {
		if _, err := newIndexFromParts(tc.times, tc.postings, items, tc.df); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := newIndexFromParts([]int64{100, 100}, [][]sessions.SessionID{{1, 0}, {1}}, items, []int32{2, 1}); err != nil {
		t.Errorf("equal timestamps with descending ids rejected: %v", err)
	}
}

// randomDataset builds a dataset of n sessions over an item vocabulary with
// strictly increasing timestamps (so recency tie-breaks are deterministic).
func randomDataset(rng *rand.Rand, n, vocab int) *sessions.Dataset {
	var ss []sessions.Session
	tick := int64(1000)
	for i := 0; i < n; i++ {
		length := 2 + rng.Intn(6)
		items := make([]sessions.ItemID, length)
		times := make([]int64, length)
		for j := range items {
			items[j] = sessions.ItemID(rng.Intn(vocab))
			tick++
			times[j] = tick
		}
		ss = append(ss, sessions.Session{ID: sessions.SessionID(i), Items: items, Times: times})
	}
	return sessions.FromSessions("rand", ss)
}

func randomEvolving(rng *rand.Rand, vocab int) []sessions.ItemID {
	length := 1 + rng.Intn(6)
	out := make([]sessions.ItemID, length)
	for i := range out {
		out[i] = sessions.ItemID(rng.Intn(vocab))
	}
	return out
}
