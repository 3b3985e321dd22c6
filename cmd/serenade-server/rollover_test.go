package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"serenade/internal/core"
	"serenade/internal/index"
	"serenade/internal/serving"
	"serenade/internal/sessions"
	"serenade/internal/synth"
)

// buildIndex generates a small synthetic click log and indexes it.
func buildIndex(t *testing.T, seed int64) *core.Index {
	t.Helper()
	ds, err := synth.Generate(synth.Small(seed))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(sessions.Renumber(ds), 500)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// newServer serves idx the way main does: the server owns its index, so a
// rollover releases the outgoing generation once it drains.
func newServer(t *testing.T, idx *core.Index) *serving.Server {
	t.Helper()
	srv, err := serving.NewServer(idx, serving.Config{Params: core.Params{M: 500, K: 100}, OwnIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestHotRolloverUnderTraffic swaps tomorrow's index file in through the
// SIGHUP path while four clients keep requesting: no request fails, and
// the server answers from the new index afterwards.
func TestHotRolloverUnderTraffic(t *testing.T) {
	srv := newServer(t, buildIndex(t, 31))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Tomorrow's index build, shipped to disk.
	next := buildIndex(t, 32)
	path := filepath.Join(t.TempDir(), "next.srn")
	if err := index.SaveFile(path, next); err != nil {
		t.Fatal(err)
	}

	// Traffic flows while the rollover happens.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(fmt.Sprintf("%s/v1/recommend?session_id=w%d&item_id=%d", ts.URL, w, i%400))
				if err != nil {
					t.Errorf("request failed during rollover: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d during rollover", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	loaded, d, err := rollover(srv, path)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if d <= 0 {
		t.Errorf("load time = %v, want > 0", d)
	}
	if srv.Index() != loaded {
		t.Error("the loaded index is not the active one")
	}
	st := srv.Stats()
	if st.IndexSwaps != 1 {
		t.Errorf("index swaps = %d, want 1", st.IndexSwaps)
	}
	if st.IndexSessions != next.NumSessions() {
		t.Errorf("index sessions after rollover = %d, want %d", st.IndexSessions, next.NumSessions())
	}
}

// TestRolloverRejectsBadFile: a missing or corrupt index file is refused and
// the active index keeps serving.
func TestRolloverRejectsBadFile(t *testing.T) {
	idx := buildIndex(t, 31)
	srv := newServer(t, idx)
	corrupt := filepath.Join(t.TempDir(), "corrupt.srn")
	if err := os.WriteFile(corrupt, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(t.TempDir(), "missing.srn"), corrupt} {
		if _, _, err := rollover(srv, path); err == nil {
			t.Errorf("rollover(%s) succeeded", filepath.Base(path))
		}
	}
	if srv.Index() != idx || srv.Stats().IndexSwaps != 0 {
		t.Fatalf("a failed rollover replaced the index (swaps = %d)", srv.Stats().IndexSwaps)
	}
	if _, err := srv.Recommend(serving.Request{SessionKey: "u", Item: 1, Consent: true}); err != nil {
		t.Fatal(err)
	}
}
