package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"serenade/internal/core"
	"serenade/internal/index"
	"serenade/internal/obs/quality"
	"serenade/internal/sessions"
	"serenade/internal/synth"
	"serenade/internal/trending"
)

type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testIndex(t testing.TB) *core.Index {
	t.Helper()
	ds, err := synth.Generate(synth.Small(77))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Params.M == 0 {
		cfg.Params = core.Params{M: 100, K: 50}
	}
	s, err := NewServer(testIndex(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// popularItem returns an item that certainly has neighbours in the index.
func popularItem() sessions.ItemID { return 0 }

func TestRecommendBasics(t *testing.T) {
	s := testServer(t, Config{})
	resp, err := s.Recommend(Request{SessionKey: "u1", Item: popularItem(), Consent: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) == 0 {
		t.Fatal("no recommendations for a popular item")
	}
	if len(resp.Items) > DefaultRecommendations {
		t.Errorf("items = %d, want <= %d", len(resp.Items), DefaultRecommendations)
	}
	for i := 1; i < len(resp.Items); i++ {
		if resp.Items[i].Score > resp.Items[i-1].Score {
			t.Error("recommendations not in descending score order")
		}
	}
	for _, it := range resp.Items {
		if it.Item == popularItem() {
			t.Error("currently displayed item was recommended")
		}
	}
	if resp.SessionLength != 1 {
		t.Errorf("session length = %d, want 1", resp.SessionLength)
	}
}

func TestSessionStateAccumulates(t *testing.T) {
	s := testServer(t, Config{})
	s.Recommend(Request{SessionKey: "u", Item: 1, Consent: true})
	s.Recommend(Request{SessionKey: "u", Item: 2, Consent: true})
	resp, _ := s.Recommend(Request{SessionKey: "u", Item: 3, Consent: true})
	if resp.SessionLength != 3 {
		t.Errorf("session length = %d, want 3", resp.SessionLength)
	}
	state, ok := s.SessionState("u")
	if !ok || !reflect.DeepEqual(state, []sessions.ItemID{1, 2, 3}) {
		t.Errorf("session state = %v,%v want [1 2 3]", state, ok)
	}
	// Other sessions are isolated.
	if _, ok := s.SessionState("other"); ok {
		t.Error("unknown session has state")
	}
}

func TestSessionStateCapped(t *testing.T) {
	s := testServer(t, Config{})
	for i := 0; i < maxStoredSessionLength+10; i++ {
		s.Recommend(Request{SessionKey: "u", Item: sessions.ItemID(i % 100), Consent: true})
	}
	state, _ := s.SessionState("u")
	if len(state) != maxStoredSessionLength {
		t.Errorf("stored session length = %d, want cap %d", len(state), maxStoredSessionLength)
	}
}

func TestDepersonalisation(t *testing.T) {
	s := testServer(t, Config{})
	s.Recommend(Request{SessionKey: "u", Item: 1, Consent: true})
	s.Recommend(Request{SessionKey: "u", Item: 2, Consent: true})
	// Consent revoked: history must be dropped and prediction must use only
	// the current item.
	resp, err := s.Recommend(Request{SessionKey: "u", Item: popularItem(), Consent: false})
	if err != nil {
		t.Fatal(err)
	}
	if resp.SessionLength != 1 {
		t.Errorf("depersonalised session length = %d, want 1", resp.SessionLength)
	}
	if _, ok := s.SessionState("u"); ok {
		t.Error("stored history survived consent revocation")
	}
}

func TestDepersonalisedEqualsSingleItemPrediction(t *testing.T) {
	s := testServer(t, Config{})
	s.Recommend(Request{SessionKey: "a", Item: 5, Consent: true})
	s.Recommend(Request{SessionKey: "a", Item: 9, Consent: true})
	deper, _ := s.Recommend(Request{SessionKey: "a", Item: popularItem(), Consent: false})
	fresh, _ := s.Recommend(Request{SessionKey: "never-seen", Item: popularItem(), Consent: true})
	if !reflect.DeepEqual(deper.Items, fresh.Items) {
		t.Error("depersonalised prediction differs from single-item prediction")
	}
}

func TestHistoryLengthVariants(t *testing.T) {
	// serenade-recent (HistoryLength=1) must equal a fresh single-item
	// prediction even mid-session.
	recent := testServer(t, Config{HistoryLength: 1})
	recent.Recommend(Request{SessionKey: "u", Item: 7, Consent: true})
	mid, _ := recent.Recommend(Request{SessionKey: "u", Item: popularItem(), Consent: true})
	fresh, _ := recent.Recommend(Request{SessionKey: "v", Item: popularItem(), Consent: true})
	if !reflect.DeepEqual(mid.Items, fresh.Items) {
		t.Error("serenade-recent used more than the most recent item")
	}
}

func TestBusinessRules(t *testing.T) {
	catalog := NewCatalog()
	s := testServer(t, Config{Catalog: catalog})
	resp, _ := s.Recommend(Request{SessionKey: "u", Item: popularItem(), Consent: true})
	if len(resp.Items) == 0 {
		t.Fatal("need recommendations to test filtering")
	}
	banned := resp.Items[0].Item
	adult := sessions.ItemID(0)
	if len(resp.Items) > 1 {
		adult = resp.Items[1].Item
	}
	catalog.SetAvailable(banned, false)
	catalog.SetAdult(adult, true)

	resp2, _ := s.Recommend(Request{SessionKey: "u2", Item: popularItem(), Consent: true})
	for _, it := range resp2.Items {
		if it.Item == banned {
			t.Error("unavailable item recommended")
		}
		if it.Item == adult {
			t.Error("adult item recommended")
		}
	}

	catalog.SetAvailable(banned, true)
	catalog.SetAdult(adult, false)
	resp3, _ := s.Recommend(Request{SessionKey: "u3", Item: popularItem(), Consent: true})
	found := false
	for _, it := range resp3.Items {
		if it.Item == banned {
			found = true
		}
	}
	if !found {
		t.Error("re-enabled item still filtered")
	}
}

func TestSessionTTLExpiry(t *testing.T) {
	clock := &testClock{now: time.Unix(1_700_000_000, 0)}
	s := testServer(t, Config{Now: clock.Now})
	s.Recommend(Request{SessionKey: "u", Item: 1, Consent: true})
	clock.Advance(31 * time.Minute)
	if n := s.SweepSessions(); n != 1 {
		t.Errorf("sweep removed %d, want 1", n)
	}
	resp, _ := s.Recommend(Request{SessionKey: "u", Item: 2, Consent: true})
	if resp.SessionLength != 1 {
		t.Errorf("session length after expiry = %d, want 1 (fresh session)", resp.SessionLength)
	}
}

func TestStatsCounters(t *testing.T) {
	s := testServer(t, Config{})
	for i := 0; i < 5; i++ {
		s.Recommend(Request{SessionKey: fmt.Sprintf("u%d", i), Item: 1, Consent: true})
	}
	st := s.Stats()
	if st.Requests != 5 {
		t.Errorf("requests = %d, want 5", st.Requests)
	}
	if st.ActiveSessions != 5 {
		t.Errorf("active sessions = %d, want 5", st.ActiveSessions)
	}
	if st.IndexSessions == 0 || st.IndexItems == 0 {
		t.Error("index stats empty")
	}
}

func TestConcurrentRequests(t *testing.T) {
	s := testServer(t, Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := s.Recommend(Request{
					SessionKey: fmt.Sprintf("u%d", w),
					Item:       sessions.ItemID(i % 500),
					Consent:    i%7 != 0,
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Stats().Requests != 8*200 {
		t.Errorf("requests = %d, want %d", s.Stats().Requests, 8*200)
	}
}

func TestSwapIndex(t *testing.T) {
	s := testServer(t, Config{})
	before := s.Stats()

	// Build a different index (fewer sessions) and roll over to it.
	ds, err := synth.Generate(synth.Small(123))
	if err != nil {
		t.Fatal(err)
	}
	ds = sessions.FromSessions("half", ds.Sessions[:len(ds.Sessions)/2])
	newIdx, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SwapIndex(newIdx); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.IndexSessions == before.IndexSessions {
		t.Error("index swap did not take effect")
	}
	if after.IndexSwaps != 1 {
		t.Errorf("swaps = %d, want 1", after.IndexSwaps)
	}
	// Session state survives the rollover.
	s.Recommend(Request{SessionKey: "u", Item: 1, Consent: true})
	resp, _ := s.Recommend(Request{SessionKey: "u", Item: 2, Consent: true})
	if resp.SessionLength != 2 {
		t.Errorf("session state lost across swap: length %d", resp.SessionLength)
	}
}

func TestSwapIndexRejectsIncompatible(t *testing.T) {
	s := testServer(t, Config{Params: core.Params{M: 100, K: 50}})
	ds, _ := synth.Generate(synth.Small(5))
	tiny, err := core.BuildIndex(ds, 10) // capacity below M
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SwapIndex(tiny); err == nil {
		t.Error("swap to an index with insufficient capacity accepted")
	}
	// The old index must still be serving.
	if _, err := s.Recommend(Request{SessionKey: "u", Item: 1, Consent: true}); err != nil {
		t.Errorf("serving broken after rejected swap: %v", err)
	}
}

func TestSwapIndexUnderLoad(t *testing.T) {
	s := testServer(t, Config{})
	ds, _ := synth.Generate(synth.Small(321))
	other, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Recommend(Request{
					SessionKey: fmt.Sprintf("u%d", w),
					Item:       sessions.ItemID(i % 400),
					Consent:    true,
				}); err != nil {
					t.Errorf("request during swap failed: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		if err := s.SwapIndex(other); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if got := s.Stats().IndexSwaps; got != 20 {
		t.Errorf("swaps = %d, want 20", got)
	}
}

// TestSwapIndexDrainsMmapGenerations is the rollover safety proof for the
// zero-copy index path: with Config.OwnIndex set, every generation replaced
// under concurrent query load must end up closed (its mapping released) —
// but only after its in-flight requests drain — while the active generation
// is never closed. Run under -race this also exercises the
// acquire/swap/retire memory ordering.
func TestSwapIndexDrainsMmapGenerations(t *testing.T) {
	ds, err := synth.Generate(synth.Small(88))
	if err != nil {
		t.Fatal(err)
	}
	built, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.srn")
	if err := index.SaveFile(path, built); err != nil {
		t.Fatal(err)
	}
	load := func() *core.Index {
		idx, err := index.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}

	first := load()
	s, err := NewServer(first, Config{
		Params:   core.Params{M: 100, K: 50},
		OwnIndex: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Recommend(Request{
					SessionKey: fmt.Sprintf("u%d", w),
					Item:       sessions.ItemID(i % 400),
					Consent:    true,
				}); err != nil {
					t.Errorf("request during swap failed: %v", err)
					return
				}
			}
		}(w)
	}

	// Roll over repeatedly to fresh mappings of the same file while the
	// queriers hammer the server.
	var replaced []*core.Index
	active := first
	for i := 0; i < 12; i++ {
		next := load()
		if err := s.SwapIndex(next); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		replaced = append(replaced, active)
		active = next
	}
	close(stop)
	wg.Wait()

	// With no requests in flight every retired generation must now be
	// closed; the last release fires drained() synchronously, so a short
	// grace loop is only paranoia against goroutine scheduling.
	deadline := time.Now().Add(5 * time.Second)
	for _, old := range replaced {
		for !old.Closed() {
			if time.Now().After(deadline) {
				t.Fatal("retired generation never closed after drain")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if active.Closed() {
		t.Fatal("active generation was closed while serving")
	}
	// Still serving from the live mapping.
	if _, err := s.Recommend(Request{SessionKey: "u", Item: 1, Consent: true}); err != nil {
		t.Fatalf("serving after rollovers: %v", err)
	}
	// Server close retires the active generation too.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for !active.Closed() {
		if time.Now().After(deadline) {
			t.Fatal("active generation not closed by server Close")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSwapIndexSharedIndexNotClosed: without OwnIndex the server must never
// close a replaced index — cluster.Pool replicas share one index across
// servers.
func TestSwapIndexSharedIndexNotClosed(t *testing.T) {
	shared := testIndex(t)
	s, err := NewServer(shared, Config{Params: core.Params{M: 100, K: 50}})
	if err != nil {
		t.Fatal(err)
	}
	other := testIndex(t)
	if err := s.SwapIndex(other); err != nil {
		t.Fatal(err)
	}
	if shared.Closed() {
		t.Error("server without OwnIndex closed a replaced shared index")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if other.Closed() {
		t.Error("server without OwnIndex closed the active shared index")
	}
}

func TestNewServerRejectsBadParams(t *testing.T) {
	if _, err := NewServer(testIndex(t), Config{Params: core.Params{M: 0, K: 5}}); err == nil {
		t.Error("invalid params accepted")
	}
}

// --- HTTP layer ---

func TestHTTPRecommendPost(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(Request{SessionKey: "u1", Item: popularItem(), Consent: true})
	resp, err := http.Post(ts.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) == 0 {
		t.Error("empty recommendation list over HTTP")
	}
}

func TestHTTPRecommendGet(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/recommend?session_id=u2&item_id=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		do   func() (*http.Response, error)
	}{
		{"missingSession", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/recommend?item_id=1")
		}},
		{"badItem", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/recommend?session_id=u&item_id=xyz")
		}},
		{"badJSON", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/recommend", "application/json", bytes.NewReader([]byte("{nope")))
		}},
		{"unknownField", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/recommend", "application/json", bytes.NewReader([]byte(`{"bogus":1}`)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestHTTPOversizedBody pins the request-body bound: a 1 MiB POST to either
// body-reading endpoint is refused with 413 and counted as a bad request,
// the next normal request is served, and no pooled scratch keeps a body
// buffer larger than the bound.
func TestHTTPOversizedBody(t *testing.T) {
	s := testServer(t, Config{Quality: &quality.Options{Variant: "a"}})
	h := s.Handler()
	huge := bytes.Repeat([]byte(" "), 1<<20)
	for _, path := range []string{"/v1/recommend", "/track"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(huge)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: 1 MiB body got status %d, want 413", path, rec.Code)
		}
	}
	if got := s.errInput.Value(); got != 2 {
		t.Errorf("bad_request count = %d, want 2", got)
	}

	body, _ := json.Marshal(Request{SessionKey: "u1", Item: popularItem(), Consent: true})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/recommend", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("normal request after oversized ones got status %d", rec.Code)
	}

	var held []*reqScratch
	for i := 0; i < 8; i++ {
		sc := getScratch()
		held = append(held, sc)
		if c := cap(sc.body); c > maxRequestBody {
			t.Errorf("pooled scratch body capacity %d exceeds the %d-byte bound", c, maxRequestBody)
		}
	}
	for _, sc := range held {
		putScratch(sc)
	}
	got, err := readAllInto(nil, bytes.NewReader(huge))
	if !errors.Is(err, errBodyTooLarge) || cap(got) > maxRequestBody {
		t.Errorf("readAllInto(1 MiB) = cap %d, err %v; want cap <= %d and errBodyTooLarge", cap(got), err, maxRequestBody)
	}
}

func TestHTTPSessionDebugAndHealth(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/session/none"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session = %d, want 404", resp.StatusCode)
	}
	http.Get(ts.URL + "/v1/recommend?session_id=dbg&item_id=4")
	resp, _ := http.Get(ts.URL + "/v1/session/dbg")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session debug = %d", resp.StatusCode)
	}
	var out struct {
		Items []sessions.ItemID `json:"items"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if !reflect.DeepEqual(out.Items, []sessions.ItemID{4}) {
		t.Errorf("debug items = %v, want [4]", out.Items)
	}

	if resp, _ := http.Get(ts.URL + "/metrics"); resp.StatusCode != http.StatusOK {
		t.Errorf("metrics = %d", resp.StatusCode)
	}
}

func TestFallbackToPopular(t *testing.T) {
	s := testServer(t, Config{FallbackToPopular: true})
	// An item with no neighbours (beyond the catalog) still fills the slot.
	resp, err := s.Recommend(Request{SessionKey: "cold", Item: 9999, Consent: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != DefaultRecommendations {
		t.Fatalf("fallback slot = %d items, want %d", len(resp.Items), DefaultRecommendations)
	}
	seen := map[sessions.ItemID]struct{}{}
	for _, it := range resp.Items {
		if it.Item == 9999 {
			t.Error("current item in fallback list")
		}
		if _, dup := seen[it.Item]; dup {
			t.Error("duplicate item in fallback list")
		}
		seen[it.Item] = struct{}{}
	}

	// Without the fallback, the same request yields nothing.
	bare := testServer(t, Config{})
	resp2, _ := bare.Recommend(Request{SessionKey: "cold", Item: 9999, Consent: true})
	if len(resp2.Items) != 0 {
		t.Errorf("unexpected recommendations without fallback: %d", len(resp2.Items))
	}
}

func TestFallbackRespectsCatalog(t *testing.T) {
	catalog := NewCatalog()
	s := testServer(t, Config{FallbackToPopular: true, Catalog: catalog})
	resp, _ := s.Recommend(Request{SessionKey: "u", Item: 9999, Consent: true})
	if len(resp.Items) == 0 {
		t.Fatal("no fallback items")
	}
	banned := resp.Items[0].Item
	catalog.SetAvailable(banned, false)
	resp2, _ := s.Recommend(Request{SessionKey: "u2", Item: 9999, Consent: true})
	for _, it := range resp2.Items {
		if it.Item == banned {
			t.Error("unavailable item in fallback list")
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Build up session state, pick a recommended item, explain it.
	resp, err := s.Recommend(Request{SessionKey: "ex", Item: popularItem(), Consent: true})
	if err != nil || len(resp.Items) == 0 {
		t.Fatalf("setup failed: %v (%d items)", err, len(resp.Items))
	}
	target := resp.Items[0].Item

	httpResp, err := http.Get(fmt.Sprintf("%s/v1/explain?session_id=ex&item_id=%d", ts.URL, target))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("explain status = %d", httpResp.StatusCode)
	}
	var ex core.Explanation
	if err := json.NewDecoder(httpResp.Body).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	if ex.Score <= 0 || len(ex.Contributions) == 0 {
		t.Errorf("empty explanation: %+v", ex)
	}

	// Unknown session and bad parameters.
	if r, _ := http.Get(ts.URL + "/v1/explain?session_id=nobody&item_id=1"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session explain = %d, want 404", r.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/v1/explain?item_id=1"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("missing session_id = %d, want 400", r.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/v1/explain?session_id=ex&item_id=abc"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad item_id = %d, want 400", r.StatusCode)
	}
}

func TestTrendingEndpoint(t *testing.T) {
	tracker := trending.New(time.Hour, nil)
	s := testServer(t, Config{Trending: tracker})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Clicks flow into the tracker through the recommendation path.
	for i := 0; i < 5; i++ {
		s.Recommend(Request{SessionKey: fmt.Sprintf("u%d", i), Item: 7, Consent: true})
	}
	s.Recommend(Request{SessionKey: "x", Item: 9, Consent: true})

	resp, err := http.Get(ts.URL + "/v1/trending?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trending status = %d", resp.StatusCode)
	}
	var out struct {
		Items []core.ScoredItem `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 2 || out.Items[0].Item != 7 {
		t.Errorf("trending = %v, want item 7 first", out.Items)
	}

	if r, _ := http.Get(ts.URL + "/v1/trending?n=abc"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n = %d, want 400", r.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/v1/trending?new=xyz"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad new = %d, want 400", r.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/v1/trending?new=1h"); r.StatusCode != http.StatusOK {
		t.Errorf("new=1h = %d, want 200", r.StatusCode)
	}

	// Disabled tracker -> 404.
	bare := testServer(t, Config{})
	ts2 := httptest.NewServer(bare.Handler())
	defer ts2.Close()
	if r, _ := http.Get(ts2.URL + "/v1/trending"); r.StatusCode != http.StatusNotFound {
		t.Errorf("disabled trending = %d, want 404", r.StatusCode)
	}
}

func TestHTTPAdminReload(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Ship a fresh (smaller) index build to disk and reload it.
	ds, _ := synth.Generate(synth.Small(222))
	ds = sessions.FromSessions("fresh", ds.Sessions[:500])
	newIdx, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fresh.srn")
	if err := index.SaveFile(path, newIdx); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(map[string]string{"path": path})
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d, want 200", resp.StatusCode)
	}
	if got := s.Stats().IndexSessions; got != 500 {
		t.Errorf("index sessions after reload = %d, want 500", got)
	}

	// Bad requests.
	for _, bodyStr := range []string{"", "{}", `{"path":"/does/not/exist"}`} {
		resp, err := http.Post(ts.URL+"/admin/reload", "application/json", bytes.NewReader([]byte(bodyStr)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("reload with body %q succeeded", bodyStr)
		}
	}
}

func TestPrometheusMetrics(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.Recommend(Request{SessionKey: "u", Item: 1, Consent: true})
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	text := body.String()
	for _, want := range []string{
		"serenade_requests_total 1",
		"serenade_active_sessions 1",
		"serenade_index_swaps_total 0",
		"# TYPE serenade_request_latency_seconds histogram",
		`serenade_request_latency_seconds_bucket{le="+Inf"} 1`,
		"serenade_request_latency_seconds_count 1",
		`serenade_stage_latency_seconds_bucket{stage="score",le="+Inf"} 1`,
		"serenade_store_gets_total",
		"serenade_go_goroutines",
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

func TestEncodeDecodeSession(t *testing.T) {
	in := []sessions.ItemID{0, 1, 127, 128, 1 << 20}
	out := decodeSession(encodeSession(in))
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip = %v, want %v", out, in)
	}
	if decodeSession(nil) != nil {
		t.Error("decode of empty must be nil")
	}
}

func BenchmarkServerRecommend(b *testing.B) {
	idx := testIndex(b)
	s, err := NewServer(idx, Config{Params: core.Params{M: 500, K: 100}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Recommend(Request{
				SessionKey: fmt.Sprintf("u%d", i%64),
				Item:       sessions.ItemID(i % 500),
				Consent:    true,
			})
			i++
		}
	})
}

// TestStatsMemoryAccounting: the /metrics payload reports both the shared
// index footprint and the per-goroutine kernel footprint, and the kernel
// footprint tracks the active generation across an index swap.
func TestStatsMemoryAccounting(t *testing.T) {
	s := testServer(t, Config{})
	st := s.Stats()
	if st.IndexBytes <= 0 {
		t.Errorf("IndexBytes = %d, want > 0", st.IndexBytes)
	}
	if st.RecommenderBytes <= 0 {
		t.Errorf("RecommenderBytes = %d, want > 0", st.RecommenderBytes)
	}
	if st.IndexBytes != s.Index().MemoryFootprint() {
		t.Errorf("IndexBytes = %d, want index footprint %d", st.IndexBytes, s.Index().MemoryFootprint())
	}
	// A request must not disturb the accounting (pooled kernel round-trip).
	if _, err := s.Recommend(Request{SessionKey: "u", Item: 1, Consent: true}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().RecommenderBytes; got < st.RecommenderBytes {
		t.Errorf("RecommenderBytes shrank after a request: %d -> %d", st.RecommenderBytes, got)
	}
}
