package compressed

import (
	"math/rand"
	"reflect"
	"testing"

	"serenade/internal/core"
	"serenade/internal/sessions"
	"serenade/internal/synth"
)

func sourceIndex(t testing.TB, seed int64, capacity int) *core.Index {
	t.Helper()
	ds, err := synth.Generate(synth.Small(seed))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(ds, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestRoundTripStructures(t *testing.T) {
	src := sourceIndex(t, 9, 50)
	c := FromIndex(src)
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumSessions() != src.NumSessions() || c.NumItems() != src.NumItems() || c.Capacity() != src.Capacity() {
		t.Fatal("shape changed under compression")
	}
	for i := 0; i < src.NumItems(); i++ {
		item := sessions.ItemID(i)
		if c.DF(item) != src.DF(item) || c.IDF(item) != src.IDF(item) {
			t.Fatalf("df/idf of item %d changed", i)
		}
		got, want := c.Postings(item), src.Postings(item)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("postings of item %d changed: %v vs %v", i, got, want)
		}
	}
	for s := 0; s < src.NumSessions(); s++ {
		sid := sessions.SessionID(s)
		got, want := c.SessionItems(sid), src.SessionItems(sid)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("items of session %d changed", s)
		}
		if c.Time(sid) != src.Times()[s] {
			t.Fatalf("time of session %d changed", s)
		}
	}
}

func TestOutOfRangeAccessors(t *testing.T) {
	c := FromIndex(sourceIndex(t, 1, 0))
	if c.DF(99999) != 0 || c.IDF(99999) != 0 {
		t.Error("out-of-range df/idf not zero")
	}
	if got := c.Postings(99999); got != nil {
		t.Errorf("out-of-range postings = %v", got)
	}
}

func TestCompressionShrinksFootprint(t *testing.T) {
	src := sourceIndex(t, 2, 0)
	c := FromIndex(src)
	ratio := CompressionRatio(src, c)
	if ratio <= 1.2 {
		t.Errorf("compression ratio = %.2f, want > 1.2", ratio)
	}
}

// TestRecommenderMatchesCore is the headline property: the compressed
// executor returns exactly the same neighbours and recommendations as the
// uncompressed one, across parameter settings and random queries.
func TestRecommenderMatchesCore(t *testing.T) {
	src := sourceIndex(t, 3, 0)
	c := FromIndex(src)
	for _, p := range []core.Params{
		{M: 10, K: 5},
		{M: 100, K: 50},
		{M: 500, K: 100, DisableEarlyStopping: true, HeapArity: 2},
	} {
		ref, err := core.NewRecommender(src, p)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := NewRecommender(c, p)
		if err != nil {
			t.Fatal(err)
		}
		run(t, ref, comp, int64(p.M))
	}
}

// TestRecommenderMatchesCoreTiedTimes runs the same differential on a synth
// profile dense enough that many sessions share a one-second timestamp, with
// M small enough that the walk evicts among them: the compressed walk and
// core's merge must agree bitwise on neighbours and recommendations, with
// early stopping on and off.
func TestRecommenderMatchesCoreTiedTimes(t *testing.T) {
	cfg := synth.Small(11)
	cfg.NumSessions, cfg.Days = 6_000, 2
	ds, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := FromIndex(src)
	for _, noEarlyStop := range []bool{false, true} {
		p := core.Params{M: 50, K: 20, DisableEarlyStopping: noEarlyStop}
		ref, err := core.NewRecommender(src, p)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := NewRecommender(c, p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < 300; trial++ {
			q := make([]sessions.ItemID, 1+rng.Intn(6))
			for i := range q {
				q[i] = sessions.ItemID(rng.Intn(100))
			}
			a := append([]core.Neighbor(nil), ref.NeighborSessions(q)...)
			if b := comp.NeighborSessions(q); !reflect.DeepEqual(a, b) {
				t.Fatalf("compressed neighbours disagree on %v:\n%v\nvs\n%v", q, a, b)
			}
		}
		run(t, ref, comp, 13)
	}
}

func run(t *testing.T, ref *core.Recommender, comp *Recommender, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 200; trial++ {
		length := 1 + rng.Intn(6)
		q := make([]sessions.ItemID, length)
		for i := range q {
			q[i] = sessions.ItemID(rng.Intn(500))
		}
		a := ref.Recommend(q, 21)
		b := comp.Recommend(q, 21)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("compressed recommender disagrees on %v:\n%v\nvs\n%v", q, a, b)
		}
	}
}

func TestRecommenderValidation(t *testing.T) {
	c := FromIndex(sourceIndex(t, 4, 20))
	if _, err := NewRecommender(c, core.Params{M: 100, K: 10}); err == nil {
		t.Error("M beyond capacity accepted")
	}
	if _, err := NewRecommender(c, core.Params{M: 0, K: 0}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestCloneShareIndex(t *testing.T) {
	c := FromIndex(sourceIndex(t, 5, 0))
	r, err := NewRecommender(c, core.Params{M: 50, K: 20})
	if err != nil {
		t.Fatal(err)
	}
	cl := r.Clone()
	q := []sessions.ItemID{1, 2}
	if !reflect.DeepEqual(r.Recommend(q, 10), cl.Recommend(q, 10)) {
		t.Error("clone disagrees")
	}
}

func TestRecommendEdgeCases(t *testing.T) {
	c := FromIndex(sourceIndex(t, 6, 0))
	r, _ := NewRecommender(c, core.Params{M: 50, K: 20})
	if r.Recommend(nil, 5) != nil {
		t.Error("empty session must return nil")
	}
	if r.Recommend([]sessions.ItemID{1}, 0) != nil {
		t.Error("n=0 must return nil")
	}
	if r.Recommend([]sessions.ItemID{999999}, 5) != nil {
		t.Error("unknown item must return nil")
	}
}

// BenchmarkAblationCompressedVsRaw compares query latency over the two
// index representations (the compression trade-off study).
func BenchmarkAblationCompressedVsRaw(b *testing.B) {
	src := sourceIndex(b, 7, 0)
	c := FromIndex(src)
	p := core.Params{M: 500, K: 100}
	rawRec, err := core.NewRecommender(src, p)
	if err != nil {
		b.Fatal(err)
	}
	compRec, err := NewRecommender(c, p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	queries := make([][]sessions.ItemID, 256)
	for i := range queries {
		q := make([]sessions.ItemID, 1+rng.Intn(5))
		for j := range q {
			q[j] = sessions.ItemID(rng.Intn(500))
		}
		queries[i] = q
	}
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rawRec.Recommend(queries[i%len(queries)], 21)
		}
		b.ReportMetric(float64(src.MemoryFootprint()), "index-bytes")
	})
	b.Run("compressed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compRec.Recommend(queries[i%len(queries)], 21)
		}
		b.ReportMetric(float64(c.MemoryFootprint()), "index-bytes")
	})
}
