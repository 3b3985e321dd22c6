package serenade_test

// End-to-end integration tests across the full stack: dataset generation →
// CSV persistence → parallel index build → on-disk index format → HTTP
// serving behind the sticky-session proxy → load replay. The hot index
// rollover under traffic is tested where it lives, in cmd/serenade-server.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"serenade"
	"serenade/internal/cluster"
	"serenade/internal/core"
	"serenade/internal/loadgen"
	"serenade/internal/serving"
)

func TestFullPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()

	// 1. Offline: generate the click log, persist, reload, build the index
	// with the data-parallel engine, ship it to disk.
	ds, err := serenade.Generate(serenade.SmallDataset(2024))
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "clicks.csv.gz")
	if err := serenade.SaveCSV(csvPath, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := serenade.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	train, test := serenade.Split(loaded, 1)
	idx, err := serenade.BuildIndex(train, 500)
	if err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "index.srn")
	if err := serenade.SaveIndex(idxPath, idx); err != nil {
		t.Fatal(err)
	}

	// 2. Online: two stateful replicas loading the shipped index, behind
	// the sticky proxy.
	shipped, err := serenade.LoadIndex(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	proxy := cluster.NewProxy()
	var replicas []*serving.Server
	for i := 0; i < 2; i++ {
		srv, err := serenade.NewServer(shipped, serenade.ServerConfig{
			Params: serenade.Params{M: 500, K: 100},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		u, _ := url.Parse(ts.URL)
		proxy.AddBackend(fmt.Sprintf("pod-%d", i), u)
		replicas = append(replicas, srv)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	// 3. Replay held-out traffic through the HTTP front door.
	workload := loadgen.Workload(test, 400)
	if len(workload) == 0 {
		t.Fatal("empty workload")
	}
	client := front.Client()
	var served int
	for _, req := range workload {
		resp, err := client.Get(fmt.Sprintf("%s/v1/recommend?session_id=%s&item_id=%d",
			front.URL, req.SessionKey, req.Item))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var out serving.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		served++
	}
	if served != len(workload) {
		t.Fatalf("served %d of %d", served, len(workload))
	}

	// 4. Both replicas took traffic, and every session's state lives on
	// exactly one replica.
	var totalRequests uint64
	for _, r := range replicas {
		st := r.Stats()
		if st.Requests == 0 {
			t.Error("a replica received no traffic")
		}
		totalRequests += st.Requests
	}
	if totalRequests != uint64(len(workload)) {
		t.Errorf("replica request sum = %d, want %d", totalRequests, len(workload))
	}
	seen := map[string]int{}
	for _, req := range workload {
		seen[req.SessionKey] = 0
	}
	for key := range seen {
		for _, r := range replicas {
			if _, ok := r.SessionState(key); ok {
				seen[key]++
			}
		}
		if seen[key] != 1 {
			t.Fatalf("session %s state on %d replicas, want 1", key, seen[key])
		}
	}
}

// TestInternalAndFacadeIndexesAgree guards the facade against drifting from
// the internals: an index built through the facade answers exactly like one
// built directly with internal/core.
func TestInternalAndFacadeIndexesAgree(t *testing.T) {
	ds, _ := serenade.Generate(serenade.SmallDataset(5))
	viaFacade, err := serenade.BuildIndex(ds, 200)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.BuildIndex(ds, 200) // Generate already renumbers
	if err != nil {
		t.Fatal(err)
	}
	a, _ := serenade.New(viaFacade, serenade.Params{M: 200, K: 50})
	b, _ := core.NewRecommender(direct, core.Params{M: 200, K: 50})
	for item := 0; item < 50; item++ {
		q := []serenade.ItemID{serenade.ItemID(item)}
		ra := a.Recommend(q, 10)
		rb := b.Recommend(q, 10)
		if len(ra) != len(rb) {
			t.Fatalf("facade and internal disagree on item %d", item)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("facade and internal disagree on item %d at rank %d", item, i)
			}
		}
	}
}
