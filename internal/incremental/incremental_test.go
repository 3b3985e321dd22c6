package incremental

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"serenade/internal/core"
	"serenade/internal/sessions"
)

// sessionStream produces random sessions with strictly increasing times,
// or — coarse — on a one-second clock that several sessions share.
type sessionStream struct {
	rng    *rand.Rand
	tick   int64
	coarse bool
	all    []sessions.Session
}

func newStream(seed int64) *sessionStream {
	return &sessionStream{rng: rand.New(rand.NewSource(seed)), tick: 1000}
}

func (st *sessionStream) next(vocab int) ([]sessions.ItemID, int64) {
	length := 2 + st.rng.Intn(5)
	items := make([]sessions.ItemID, length)
	times := make([]int64, length)
	if st.coarse && st.rng.Intn(4) == 0 {
		st.tick++
	}
	for i := range items {
		items[i] = sessions.ItemID(st.rng.Intn(vocab))
		if !st.coarse {
			st.tick++
		}
		times[i] = st.tick
	}
	st.all = append(st.all, sessions.Session{
		ID: sessions.SessionID(len(st.all)), Items: items, Times: times,
	})
	return items, times[len(times)-1]
}

func (st *sessionStream) dataset() *sessions.Dataset {
	copied := make([]sessions.Session, len(st.all))
	copy(copied, st.all)
	return sessions.FromSessions("stream", copied)
}

// freshRecommender rebuilds an index from scratch over the given sessions.
func freshRecommender(t *testing.T, ds *sessions.Dataset, p core.Params) *core.Recommender {
	t.Helper()
	idx, err := core.BuildIndex(sessions.Renumber(ds), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.NewRecommender(idx, p)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func queries(rng *rand.Rand, vocab, n int) [][]sessions.ItemID {
	out := make([][]sessions.ItemID, n)
	for i := range out {
		q := make([]sessions.ItemID, 1+rng.Intn(4))
		for j := range q {
			q[j] = sessions.ItemID(rng.Intn(vocab))
		}
		out[i] = q
	}
	return out
}

// TestAppendMatchesRebuild: after every batch of appends, the incremental
// index answers exactly like a from-scratch rebuild over all sessions.
func TestAppendMatchesRebuild(t *testing.T) {
	checkAppendMatchesRebuild(t, newStream(1), core.Params{M: 25, K: 10})
}

// TestAppendMatchesRebuildTiedTimes is the same check on a coarse clock,
// where runs of sessions share a timestamp and M is small enough that the
// incremental walk evicts among them — with early stopping on and off, it
// must keep exactly the sessions the rebuilt index's merge picks.
func TestAppendMatchesRebuildTiedTimes(t *testing.T) {
	for seed, noEarlyStop := range []bool{false, true} {
		st := newStream(int64(11 + seed))
		st.coarse = true
		checkAppendMatchesRebuild(t, st, core.Params{M: 8, K: 5, DisableEarlyStopping: noEarlyStop})
	}
}

func checkAppendMatchesRebuild(t *testing.T, st *sessionStream, p core.Params) {
	t.Helper()
	const vocab = 40
	for i := 0; i < 100; i++ {
		st.next(vocab)
	}
	x, err := FromDataset(st.dataset(), 0)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewRecommender(x, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for batch := 0; batch < 5; batch++ {
		for i := 0; i < 30; i++ {
			items, tm := st.next(vocab)
			if _, err := x.Append(items, tm); err != nil {
				t.Fatal(err)
			}
		}
		fresh := freshRecommender(t, st.dataset(), p)
		for _, q := range queries(rng, vocab, 40) {
			na := append([]core.Neighbor(nil), inc.NeighborSessions(q)...)
			if nb := fresh.NeighborSessions(q); !reflect.DeepEqual(na, nb) {
				t.Fatalf("batch %d: incremental neighbours disagree with rebuild on %v:\n%v\nvs\n%v", batch, q, na, nb)
			}
			a := inc.Recommend(q, 21)
			b := fresh.Recommend(q, 21)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("batch %d: incremental disagrees with rebuild on %v:\n%v\nvs\n%v", batch, q, a, b)
			}
		}
	}
	if x.DeltaSessions() != 150 {
		t.Errorf("delta sessions = %d, want 150", x.DeltaSessions())
	}
}

// TestCompactPreservesAnswers: compaction must not change any result.
func TestCompactPreservesAnswers(t *testing.T) {
	const vocab = 30
	st := newStream(3)
	for i := 0; i < 80; i++ {
		st.next(vocab)
	}
	x, err := FromDataset(st.dataset(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		items, tm := st.next(vocab)
		x.Append(items, tm)
	}
	p := core.Params{M: 20, K: 10}
	inc, _ := NewRecommender(x, p)

	rng := rand.New(rand.NewSource(4))
	qs := queries(rng, vocab, 50)
	before := make([][]core.ScoredItem, len(qs))
	for i, q := range qs {
		before[i] = append([]core.ScoredItem(nil), inc.Recommend(q, 21)...)
	}
	if err := x.Compact(); err != nil {
		t.Fatal(err)
	}
	if x.DeltaSessions() != 0 {
		t.Errorf("delta not cleared by compaction: %d", x.DeltaSessions())
	}
	for i, q := range qs {
		after := inc.Recommend(q, 21)
		if !reflect.DeepEqual(before[i], after) {
			t.Fatalf("compaction changed the answer for %v:\n%v\nvs\n%v", q, before[i], after)
		}
	}
}

// TestEvictionMatchesRebuildFromLive: EvictBefore + Compact equals a fresh
// build over only the retained sessions.
func TestEvictionMatchesRebuildFromLive(t *testing.T) {
	const vocab = 30
	st := newStream(5)
	for i := 0; i < 120; i++ {
		st.next(vocab)
	}
	x, err := FromDataset(st.dataset(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Evict the oldest ~half by time horizon.
	horizon := st.all[60].Time()
	x.EvictBefore(horizon)
	if err := x.Compact(); err != nil {
		t.Fatal(err)
	}

	var live []sessions.Session
	for _, s := range st.all {
		if s.Time() >= horizon {
			live = append(live, s)
		}
	}
	p := core.Params{M: 20, K: 10}
	fresh := freshRecommender(t, sessions.FromSessions("live", live), p)
	inc, _ := NewRecommender(x, p)

	if got, want := x.NumSessions(), len(live); got != want {
		t.Fatalf("sessions after eviction = %d, want %d", got, want)
	}
	rng := rand.New(rand.NewSource(6))
	for _, q := range queries(rng, vocab, 60) {
		// Rebuild uses full per-click times; compaction collapses a
		// session's times to its session timestamp — Session.Time() and
		// therefore all index structures are identical.
		a := inc.Recommend(q, 21)
		b := fresh.Recommend(q, 21)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("post-eviction disagreement on %v:\n%v\nvs\n%v", q, a, b)
		}
	}
}

func TestAppendValidation(t *testing.T) {
	st := newStream(7)
	for i := 0; i < 10; i++ {
		st.next(10)
	}
	x, err := FromDataset(st.dataset(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Append(nil, 99999); err == nil {
		t.Error("empty session accepted")
	}
	if _, err := x.Append([]sessions.ItemID{1}, 1); err == nil {
		t.Error("out-of-order timestamp accepted")
	}
	// Equal timestamp is fine (same-second sessions).
	last := st.all[len(st.all)-1].Time()
	if _, err := x.Append([]sessions.ItemID{1}, last); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
}

func TestEvictBeforeNeverRewinds(t *testing.T) {
	st := newStream(8)
	for i := 0; i < 10; i++ {
		st.next(10)
	}
	x, _ := FromDataset(st.dataset(), 0)
	x.EvictBefore(500)
	x.EvictBefore(100) // must not rewind
	if x.evictBefore != 500 {
		t.Errorf("horizon rewound to %d", x.evictBefore)
	}
}

func TestNewRecommenderValidation(t *testing.T) {
	st := newStream(9)
	for i := 0; i < 10; i++ {
		st.next(10)
	}
	x, err := FromDataset(st.dataset(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRecommender(x, core.Params{M: 50, K: 10}); err == nil {
		t.Error("M beyond capacity accepted")
	}
}

// TestConcurrentAppendQueryCompact exercises the locking under the race
// detector: appends, queries and compactions interleave freely.
func TestConcurrentAppendQueryCompact(t *testing.T) {
	const vocab = 25
	st := newStream(10)
	for i := 0; i < 50; i++ {
		st.next(vocab)
	}
	x, err := FromDataset(st.dataset(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{M: 20, K: 10}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer: appends sessions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := st.all[len(st.all)-1].Time()
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 500; i++ {
			tick++
			items := []sessions.ItemID{
				sessions.ItemID(rng.Intn(vocab)),
				sessions.ItemID(rng.Intn(vocab)),
			}
			if _, err := x.Append(items, tick); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
		close(stop)
	}()
	// Compactor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := x.Compact(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()
	// Readers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rec, err := NewRecommender(x, p)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					q := []sessions.ItemID{sessions.ItemID(rng.Intn(vocab))}
					rec.Recommend(q, 10)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if x.NumSessions() < 550 {
		t.Errorf("sessions = %d, want >= 550", x.NumSessions())
	}
}

func BenchmarkAppend(b *testing.B) {
	st := newStream(12)
	for i := 0; i < 100; i++ {
		st.next(100)
	}
	ds := st.dataset()
	x, err := FromDataset(ds, 0)
	if err != nil {
		b.Fatal(err)
	}
	tick := st.all[len(st.all)-1].Time()
	items := []sessions.ItemID{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick++
		if _, err := x.Append(items, tick); err != nil {
			b.Fatal(err)
		}
	}
}
