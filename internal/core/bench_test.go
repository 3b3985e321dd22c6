package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"serenade/internal/sessions"
	"serenade/internal/synth"
)

// Hot-path microbenchmarks for the dense scoring kernel, with the retained
// map-based reference measured under identical workloads so the kernel's
// win (ns/op and allocs/op) is directly visible in one `go test -bench` run.
// Session lengths: small (2 clicks, the median of Table 1), medium (9, the
// full default scoring window), large (30, exercising truncation).

const benchVocab = 500

func benchSetup(b testing.TB) *Index {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := randomDataset(rng, 5000, benchVocab)
	idx, err := BuildIndex(ds, 0)
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

func benchQueries(length int) [][]sessions.ItemID {
	rng := rand.New(rand.NewSource(2))
	queries := make([][]sessions.ItemID, 256)
	for i := range queries {
		q := make([]sessions.ItemID, length)
		for j := range q {
			q[j] = sessions.ItemID(rng.Intn(benchVocab))
		}
		queries[i] = q
	}
	return queries
}

var benchLengths = []int{2, 9, 30}

func BenchmarkNeighborSessions(b *testing.B) {
	idx := benchSetup(b)
	for _, length := range benchLengths {
		b.Run(fmt.Sprintf("len=%d", length), func(b *testing.B) {
			r, err := NewRecommender(idx, Params{M: 500, K: 100})
			if err != nil {
				b.Fatal(err)
			}
			queries := benchQueries(length)
			r.NeighborSessions(queries[0]) // warm buffer growth out of the measurement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.NeighborSessions(queries[i%len(queries)])
			}
		})
	}
}

func BenchmarkNeighborSessionsMapReference(b *testing.B) {
	idx := benchSetup(b)
	for _, length := range benchLengths {
		b.Run(fmt.Sprintf("len=%d", length), func(b *testing.B) {
			r, err := NewReferenceRecommender(idx, Params{M: 500, K: 100})
			if err != nil {
				b.Fatal(err)
			}
			queries := benchQueries(length)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.NeighborSessions(queries[i%len(queries)])
			}
		})
	}
}

// BenchmarkNeighborSessionsHot measures candidate selection in the shape
// of the benchmark harness's hot-long-closed workload (see hotIndex): every
// query's 9-item tail is 9 long posting lists, most at the cap. "kernel" is
// the merge, "reference" the map-based walk it replaced.
func BenchmarkNeighborSessionsHot(b *testing.B) {
	idx := hotIndex(b)
	queries := hotTails(idx, 256, 3)
	p := Params{M: 500, K: 100}
	kernel, err := NewRecommender(idx, p)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := NewReferenceRecommender(idx, p)
	if err != nil {
		b.Fatal(err)
	}
	for _, impl := range []struct {
		name string
		run  func([]sessions.ItemID) []Neighbor
	}{{"kernel", kernel.NeighborSessions}, {"reference", ref.NeighborSessions}} {
		b.Run(impl.name, func(b *testing.B) {
			impl.run(queries[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				impl.run(queries[i%len(queries)])
			}
		})
	}
}

// BenchmarkRecommendHot is the whole kernel in the harness's
// hot-long-closed shape: every prefix 1–20 of the hot-tail sessions, as a
// session grows click by click, n = 43 (the server's 2·21+1 over-fetch for
// its 21 recommendations), M = 500, at K = 100 and at K = 500, the shipped
// default.
func BenchmarkRecommendHot(b *testing.B) {
	idx := hotIndex(b)
	var queries [][]sessions.ItemID
	for _, s := range hotTails(idx, 256, 3) {
		for end := 1; end <= len(s); end++ {
			queries = append(queries, s[:end])
		}
	}
	for _, k := range []int{100, 500} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			r, err := NewRecommender(idx, Params{M: 500, K: k})
			if err != nil {
				b.Fatal(err)
			}
			for _, q := range queries[:64] {
				r.Recommend(q, 43)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Recommend(queries[i%len(queries)], 43)
			}
		})
	}
}

// hotIndex indexes the ecom-60m-sim profile's training days at capacity
// 1000, the harness's index.
func hotIndex(b *testing.B) *Index {
	b.Helper()
	cfg, err := synth.Profile("ecom-60m-sim")
	if err != nil {
		b.Fatal(err)
	}
	full, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := BuildIndex(sessions.Renumber(sessions.TemporalSplit(full, 1).Train), 1000)
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

// hotTails draws n sessions of 20 clicks over the index's 64 most frequent
// items, the shape of the harness's hot-long-closed traffic: every 9-item
// tail is 9 long posting lists.
func hotTails(idx *Index, n int, seed int64) [][]sessions.ItemID {
	hot := make([]sessions.ItemID, idx.NumItems())
	for i := range hot {
		hot[i] = sessions.ItemID(i)
	}
	// Most frequent first, smaller id first on ties.
	slices.SortStableFunc(hot, func(a, b sessions.ItemID) int { return int(idx.df[b]) - int(idx.df[a]) })
	hot = hot[:64]
	rng := rand.New(rand.NewSource(seed))
	queries := make([][]sessions.ItemID, n)
	for i := range queries {
		q := make([]sessions.ItemID, 20)
		for j := range q {
			q[j] = hot[rng.Intn(len(hot))]
		}
		queries[i] = q
	}
	return queries
}

func BenchmarkRecommend(b *testing.B) {
	idx := benchSetup(b)
	for _, length := range benchLengths {
		b.Run(fmt.Sprintf("len=%d", length), func(b *testing.B) {
			r, err := NewRecommender(idx, Params{M: 500, K: 100})
			if err != nil {
				b.Fatal(err)
			}
			queries := benchQueries(length)
			r.Recommend(queries[0], 21)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Recommend(queries[i%len(queries)], 21)
			}
		})
	}
}

func BenchmarkRecommendMapReference(b *testing.B) {
	idx := benchSetup(b)
	for _, length := range benchLengths {
		b.Run(fmt.Sprintf("len=%d", length), func(b *testing.B) {
			r, err := NewReferenceRecommender(idx, Params{M: 500, K: 100})
			if err != nil {
				b.Fatal(err)
			}
			queries := benchQueries(length)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Recommend(queries[i%len(queries)], 21)
			}
		})
	}
}

// BenchmarkBuildIndex measures the offline build: the epoch-stamped scratch
// dedup and two-pass CSR scatter keep allocations to the arena arrays
// themselves instead of one map + two slices per session/item.
func BenchmarkBuildIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ds := randomDataset(rng, 20_000, 5_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(ds, 500); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecommendSteadyStateZeroAlloc pins the kernel's headline property: a
// steady-state query allocates nothing on the heap — at K < M and K = M, and
// with every query's distinct tail items filling MaxSessionLength, so head
// masks use the mask table at full width (2^16 entries in the last case).
func TestRecommendSteadyStateZeroAlloc(t *testing.T) {
	idx := benchSetup(t)
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"k<m", Params{M: 500, K: 100}},
		{"k=m", Params{M: 500, K: 500}},
		{"k=m,len=16", Params{M: 500, K: 500, MaxSessionLength: maxHeads}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRecommender(idx, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			queries := distinctQueries(idx, r.Params().MaxSessionLength)
			// Warm-up: let outBuf/touched grow to their steady-state sizes.
			for _, q := range queries {
				r.Recommend(q, 21)
			}
			var i int
			allocs := testing.AllocsPerRun(200, func() {
				r.Recommend(queries[i%len(queries)], 21)
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state Recommend allocates %.1f times per op, want 0", allocs)
			}
			allocs = testing.AllocsPerRun(200, func() {
				r.NeighborSessions(queries[i%len(queries)])
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state NeighborSessions allocates %.1f times per op, want 0", allocs)
			}
		})
	}
}

// distinctQueries draws 256 queries of length distinct items, each with a
// non-empty posting list, so every query has one head per position.
func distinctQueries(idx *Index, length int) [][]sessions.ItemID {
	rng := rand.New(rand.NewSource(2))
	queries := make([][]sessions.ItemID, 256)
	for i := range queries {
		q := make([]sessions.ItemID, 0, length)
		for len(q) < length {
			item := sessions.ItemID(rng.Intn(idx.NumItems()))
			if len(idx.Postings(item)) > 0 && !slices.Contains(q, item) {
				q = append(q, item)
			}
		}
		queries[i] = q
	}
	return queries
}
