package serving

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func postRecommend(t *testing.T, h http.Handler, sessionKey, idemKey string, item int) *httptest.ResponseRecorder {
	t.Helper()
	body := fmt.Sprintf(`{"session_id":%q,"item_id":%d,"consent":true}`, sessionKey, item)
	req := httptest.NewRequest(http.MethodPost, "/v1/recommend", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set(IdempotencyKeyHeader, idemKey)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/recommend = %d: %s", rec.Code, rec.Body.String())
	}
	return rec
}

// TestIdempotencyKeyDeduplicates: a second delivery of the same logical
// request (same key) must replay the stored response byte-for-byte, mark it
// as a replay, and leave the session with a single click.
func TestIdempotencyKeyDeduplicates(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()

	first := postRecommend(t, h, "dup", "key-1", 0)
	if first.Header().Get(IdempotencyReplayHeader) != "" {
		t.Error("fresh request marked as replay")
	}
	second := postRecommend(t, h, "dup", "key-1", 0)
	if second.Header().Get(IdempotencyReplayHeader) != "true" {
		t.Error("duplicate delivery not marked as replay")
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("replayed body differs:\n%s\n%s", first.Body.String(), second.Body.String())
	}
	if state, _ := s.SessionState("dup"); len(state) != 1 {
		t.Errorf("session has %d clicks after a duplicate delivery, want 1", len(state))
	}
}

// TestIdempotencyDistinctKeysAppend: distinct keys are distinct logical
// clicks and must both land in the session.
func TestIdempotencyDistinctKeysAppend(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()

	postRecommend(t, h, "u", "key-a", 0)
	rec := postRecommend(t, h, "u", "key-b", 1)
	if rec.Header().Get(IdempotencyReplayHeader) != "" {
		t.Error("distinct key answered as replay")
	}
	if state, _ := s.SessionState("u"); len(state) != 2 {
		t.Errorf("session has %d clicks, want 2", len(state))
	}
}

// TestIdempotencyWithoutKey: requests without the header are never
// deduplicated — each delivery appends.
func TestIdempotencyWithoutKey(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()

	postRecommend(t, h, "nokey", "", 0)
	postRecommend(t, h, "nokey", "", 0)
	if state, _ := s.SessionState("nokey"); len(state) != 2 {
		t.Errorf("session has %d clicks, want 2 (no key, no dedupe)", len(state))
	}
}

// TestIdempotencyDisabled: a negative TTL turns the table off entirely;
// duplicate deliveries reprocess (the pre-dedupe behaviour).
func TestIdempotencyDisabled(t *testing.T) {
	s := testServer(t, Config{IdempotencyTTL: -1})
	h := s.Handler()

	postRecommend(t, h, "off", "key-1", 0)
	rec := postRecommend(t, h, "off", "key-1", 0)
	if rec.Header().Get(IdempotencyReplayHeader) != "" {
		t.Error("replay served with deduplication disabled")
	}
	if state, _ := s.SessionState("off"); len(state) != 2 {
		t.Errorf("session has %d clicks, want 2 with dedupe disabled", len(state))
	}
}

// TestIdempotencyEntryExpires: after the TTL the key is forgotten and the
// same delivery reprocesses — the table is a bounded retry window, not a
// permanent log.
func TestIdempotencyEntryExpires(t *testing.T) {
	clk := &testClock{now: time.Unix(1_700_000_000, 0)}
	s := testServer(t, Config{Now: clk.Now, IdempotencyTTL: time.Minute})
	h := s.Handler()

	postRecommend(t, h, "exp", "key-1", 0)
	clk.Advance(2 * time.Minute)
	rec := postRecommend(t, h, "exp", "key-1", 1)
	if rec.Header().Get(IdempotencyReplayHeader) != "" {
		t.Error("expired idempotency key still replayed")
	}
}

// TestIdempotencyKeyScopedToRequest: the table is keyed on the whole
// request, so the same key on another session, or on the same session with
// another item, is a new request and is processed, not replayed.
func TestIdempotencyKeyScopedToRequest(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()

	postRecommend(t, h, "alice", "shared-key", 0)
	postRecommend(t, h, "bob", "", 1)

	req := httptest.NewRequest(http.MethodPost, "/v1/recommend",
		strings.NewReader(`{"session_id":"bob","item_id":0,"consent":false}`))
	req.Header.Set(IdempotencyKeyHeader, "shared-key")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/recommend = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get(IdempotencyReplayHeader) != "" {
		t.Error("bob's request was answered with alice's stored response")
	}
	if state, ok := s.SessionState("bob"); ok {
		t.Errorf("bob's history survived a consent=false request: %v", state)
	}

	rec = postRecommend(t, h, "alice", "shared-key", 1)
	if rec.Header().Get(IdempotencyReplayHeader) != "" {
		t.Error("a click on another item was answered as a replay")
	}
	if state, _ := s.SessionState("alice"); len(state) != 2 {
		t.Errorf("alice's session has %d clicks, want 2", len(state))
	}
}

// TestIdempotencyTableAged ages the server's idempotency table the way a
// long-lived pod does (every slot used once, then expired) and fills it to
// half, to every slot live, and 10 % past that. At each fill an insert and
// a lookup allocate nothing, a fresh key is retained and replayed on its
// second delivery (oldest-out, not fail-open), and an expired slot is
// reused before a live one.
func TestIdempotencyTableAged(t *testing.T) {
	const ttl = time.Minute
	body := bytes.Repeat([]byte("x"), 64)
	id := func(prefix string, i int) []byte {
		return appendReplayID(nil, &Request{SessionKey: "aged", Consent: true}, fmt.Sprintf("%s-%010d", prefix, i))
	}
	liveSlots := func(tab *replayTable, now time.Time) int {
		n := 0
		for i := range tab.buckets {
			b := &tab.buckets[i]
			b.mu.Lock()
			for _, sl := range b.slots {
				if now.UnixNano() < sl.expires {
					n++
				}
			}
			b.mu.Unlock()
		}
		return n
	}

	for _, tc := range []struct {
		name  string
		live  int // fill until this many slots are live
		extra int // then insert this many more fresh keys
	}{
		{"half", maxDedupeEntries / 2, 0},
		{"full", maxDedupeEntries, 0},
		{"past-full", maxDedupeEntries, maxDedupeEntries / 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &testClock{now: time.Unix(1_700_000_000, 0)}
			s := testServer(t, Config{Now: clk.Now, IdempotencyTTL: ttl})
			tab := s.replay
			seq := 0
			for tab.occupied.Load() < int64(len(tab.buckets)*len(tab.buckets[0].slots)) {
				tab.insert(id("aging", seq), body)
				seq++
			}
			clk.Advance(ttl)
			for liveSlots(tab, clk.Now()) < tc.live {
				for i := 0; i < 1024; i++ {
					tab.insert(id("fills", seq), body)
					seq++
				}
			}
			for i := 0; i < tc.extra; i++ {
				tab.insert(id("fills", seq), body)
				seq++
			}
			clk.Advance(time.Second) // what follows is younger than the fill

			fresh := make([][]byte, 64)
			for i := range fresh {
				fresh[i] = id("fresh", i)
			}
			n := 0
			if a := testing.AllocsPerRun(len(fresh)-1, func() { tab.insert(fresh[n], body); n++ }); a != 0 {
				t.Errorf("insert: %.2f allocs, want 0", a)
			}
			dst := make([]byte, 0, len(body))
			n = 0
			if a := testing.AllocsPerRun(len(fresh)-1, func() {
				if _, ok := tab.lookup(fresh[n], dst[:0]); !ok {
					t.Errorf("fresh key %d not retained", n)
				}
				n++
			}); a != 0 {
				t.Errorf("lookup: %.2f allocs, want 0", a)
			}

			postRecommend(t, s.Handler(), "aged-http", "fresh-http", 0)
			rec := postRecommend(t, s.Handler(), "aged-http", "fresh-http", 0)
			if rec.Header().Get(IdempotencyReplayHeader) != "true" {
				t.Error("a fresh key's second delivery was reprocessed")
			}
			if state, _ := s.SessionState("aged-http"); len(state) != 1 {
				t.Errorf("session has %d clicks, want 1", len(state))
			}

			// Five keys sharing one bucket, younger than all else in it: a is
			// inserted a second before b, c and d, so once a expires the
			// bucket holds one expired slot and three live ones, and e must
			// take a's.
			var same [][]byte
			_, want := tab.bucket(id("bucket", 0))
			for i := 0; len(same) < 5; i++ {
				if _, b := tab.bucket(id("bucket", i)); b == want {
					same = append(same, id("bucket", i))
				}
			}
			clk.Advance(time.Second)
			tab.insert(same[0], body)
			clk.Advance(time.Second)
			for _, k := range same[1:4] {
				tab.insert(k, body)
			}
			clk.Advance(ttl - time.Second)
			tab.insert(same[4], body)
			if _, ok := tab.lookup(same[0], nil); ok {
				t.Error("expired entry still replayed")
			}
			for i, k := range same[1:] {
				if _, ok := tab.lookup(k, nil); !ok {
					t.Errorf("live entry %d evicted while an expired slot was free", i+1)
				}
			}
		})
	}
}

// TestReplayTableConcurrent hammers a tiny table from several goroutines,
// so inserts keep evicting slots that other goroutines are reading: a hit
// must return exactly the body last inserted under that identity.
func TestReplayTableConcurrent(t *testing.T) {
	tab := newReplayTable(8, time.Minute, time.Now)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []byte
			for i := 0; i < 2000; i++ {
				id := []byte(fmt.Sprintf("g%d-%02d", g, i%16))
				body := bytes.Repeat(id, 1+i%7)
				tab.insert(id, body)
				got, ok := tab.lookup(id, dst[:0])
				dst = got
				if ok && !bytes.Equal(got, body) {
					t.Errorf("goroutine %d: replayed %q, want %q", g, got, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
