package serenade_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"serenade"
)

func smallDataset(t testing.TB) *serenade.Dataset {
	t.Helper()
	ds, err := serenade.Generate(serenade.SmallDataset(123))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestEndToEndPublicAPI(t *testing.T) {
	ds := smallDataset(t)

	train, test := serenade.Split(ds, 1)
	if len(train.Sessions) == 0 || len(test.Sessions) == 0 {
		t.Fatal("empty split")
	}

	idx, err := serenade.BuildIndex(train, 500)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := serenade.New(idx, serenade.Params{M: 100, K: 50})
	if err != nil {
		t.Fatal(err)
	}
	items := rec.Recommend(test.Sessions[0].Items[:1], 21)
	if len(items) == 0 {
		t.Fatal("no recommendations")
	}

	report, err := serenade.Evaluate(rec.Recommend, test, 20)
	if err != nil {
		t.Fatal(err)
	}
	if report.N == 0 || report.MRR <= 0 {
		t.Errorf("evaluation found no signal: %+v", report)
	}
}

func TestIndexAndCSVPersistence(t *testing.T) {
	dir := t.TempDir()
	ds := smallDataset(t)

	csvPath := filepath.Join(dir, "clicks.csv.gz")
	if err := serenade.SaveCSV(csvPath, ds); err != nil {
		t.Fatal(err)
	}
	back, err := serenade.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sessions) != len(ds.Sessions) {
		t.Fatalf("CSV round trip lost sessions: %d vs %d", len(back.Sessions), len(ds.Sessions))
	}

	idx, err := serenade.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "index.srn")
	if err := serenade.SaveIndex(idxPath, idx); err != nil {
		t.Fatal(err)
	}
	loaded, err := serenade.LoadIndex(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := serenade.New(idx, serenade.Params{M: 50, K: 20})
	rb, _ := serenade.New(loaded, serenade.Params{M: 50, K: 20})
	q := []serenade.ItemID{5}
	if !reflect.DeepEqual(ra.Recommend(q, 10), rb.Recommend(q, 10)) {
		t.Error("loaded index disagrees with original")
	}
}

func TestServerAndPoolFacade(t *testing.T) {
	ds := smallDataset(t)
	idx, err := serenade.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	catalog := serenade.NewCatalog()
	srv, err := serenade.NewServer(idx, serenade.ServerConfig{
		Params:  serenade.Params{M: 100, K: 50},
		Catalog: catalog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := srv.Recommend(serenade.Request{SessionKey: "u", Item: 0, Consent: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) == 0 {
		t.Error("server returned no items")
	}

	pool, err := serenade.NewPool(idx, serenade.ServerConfig{Params: serenade.Params{M: 100, K: 50}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Recommend(serenade.Request{SessionKey: "u", Item: 0, Consent: true}); err != nil {
		t.Fatal(err)
	}
}

func TestItemItemCFFacade(t *testing.T) {
	ds := smallDataset(t)
	cf := serenade.NewItemItemCF(ds)
	if recs := cf.Recommend([]serenade.ItemID{0}, 10); len(recs) == 0 {
		t.Error("item-item CF returned nothing for a popular item")
	}
}

func TestEvaluateValidation(t *testing.T) {
	ds := smallDataset(t)
	if _, err := serenade.Evaluate(func([]serenade.ItemID, int) []serenade.ScoredItem { return nil }, ds, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestStatsFacade(t *testing.T) {
	st := serenade.Stats(smallDataset(t))
	if st.Sessions == 0 || st.Clicks == 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

func TestCompressedFacade(t *testing.T) {
	ds := smallDataset(t)
	idx, err := serenade.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	comp := serenade.Compress(idx)
	if comp.MemoryFootprint() >= idx.MemoryFootprint() {
		t.Error("compression did not shrink the index")
	}
	a, err := serenade.New(idx, serenade.Params{M: 100, K: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := serenade.NewCompressed(comp, serenade.Params{M: 100, K: 50})
	if err != nil {
		t.Fatal(err)
	}
	q := []serenade.ItemID{1, 2}
	if !reflect.DeepEqual(a.Recommend(q, 10), b.Recommend(q, 10)) {
		t.Error("compressed recommender disagrees")
	}
}

func TestIncrementalFacade(t *testing.T) {
	ds := smallDataset(t)
	inc, err := serenade.NewIncrementalIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := serenade.NewIncremental(inc, serenade.Params{M: 100, K: 50})
	if err != nil {
		t.Fatal(err)
	}
	before := len(rec.Recommend([]serenade.ItemID{499}, 10))
	last := ds.Sessions[len(ds.Sessions)-1].Time()
	for i := 0; i < 20; i++ {
		last++
		if _, err := inc.Append([]serenade.ItemID{499, 498}, last); err != nil {
			t.Fatal(err)
		}
	}
	after := len(rec.Recommend([]serenade.ItemID{499}, 10))
	if after < before {
		t.Error("appends did not surface in recommendations")
	}
	if err := inc.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestFilterDatasetFacade(t *testing.T) {
	ds := smallDataset(t)
	filtered, iters := serenade.FilterDataset(ds, serenade.FilterConfig{MinItemSupport: 3})
	if iters < 1 {
		t.Error("no filter iterations reported")
	}
	if len(filtered.Clicks) > len(ds.Clicks) {
		t.Error("filtering added clicks")
	}
}

func TestDatasetProfilesFacade(t *testing.T) {
	if len(serenade.DatasetProfiles()) != 6 {
		t.Error("expected 6 dataset profiles")
	}
	if _, err := serenade.DatasetProfile("ecom-1m-sim"); err != nil {
		t.Error(err)
	}
	if _, err := serenade.DatasetProfile("bogus"); err == nil {
		t.Error("unknown profile accepted")
	}
}
