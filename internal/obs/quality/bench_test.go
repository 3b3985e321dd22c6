package quality

import (
	"testing"

	"serenade/internal/core"
	"serenade/internal/sessions"
)

// TestRecordPathAllocs asserts the acceptance criterion directly: recording
// an exposure and attributing its click never allocate.
func TestRecordPathAllocs(t *testing.T) {
	tr := New(Options{CatalogSize: 1000,
		Popularity: func(it sessions.ItemID) float64 { return float64(it) }})
	ln := tr.Line("knn")
	list := recs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)

	if n := testing.AllocsPerRun(1000, func() {
		tr.RecordExposure(ln, list)
	}); n != 0 {
		t.Fatalf("RecordExposure allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		id := tr.RecordExposure(ln, list)
		tr.Attribute(id, 3, false)
	}); n != 0 {
		t.Fatalf("RecordExposure+Attribute allocates %.1f/op, want 0", n)
	}
}

func BenchmarkRecordExposure(b *testing.B) {
	tr := New(Options{CatalogSize: 1000,
		Popularity: func(it sessions.ItemID) float64 { return float64(it) }})
	ln := tr.Line("knn")
	list := recs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RecordExposure(ln, list)
	}
}

func BenchmarkAttribute(b *testing.B) {
	tr := New(Options{Exposures: 1 << 16})
	ln := tr.Line("knn")
	list := recs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tr.RecordExposure(ln, list)
		tr.Attribute(id, list[i%len(list)].Item, false)
	}
}

func BenchmarkRecordExposureParallel(b *testing.B) {
	tr := New(Options{Exposures: 1 << 14})
	ln := tr.Line("knn")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		list := make([]core.ScoredItem, 10)
		for i := range list {
			list[i] = core.ScoredItem{Item: sessions.ItemID(i + 1), Score: float64(10 - i)}
		}
		for pb.Next() {
			id := tr.RecordExposure(ln, list)
			tr.Attribute(id, list[0].Item, false)
		}
	})
}
