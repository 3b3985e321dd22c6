package index

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"serenade/internal/core"
	"serenade/internal/dataflow"
	"serenade/internal/sessions"
	"serenade/internal/synth"
)

func smallDataset(t *testing.T, seed int64) *sessions.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.Small(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// indexesEqual compares the observable state of two indexes.
func indexesEqual(t *testing.T, a, b *core.Index) {
	t.Helper()
	if a.NumSessions() != b.NumSessions() || a.NumItems() != b.NumItems() || a.Capacity() != b.Capacity() {
		t.Fatalf("shape differs: (%d,%d,%d) vs (%d,%d,%d)",
			a.NumSessions(), a.NumItems(), a.Capacity(),
			b.NumSessions(), b.NumItems(), b.Capacity())
	}
	if !reflect.DeepEqual(a.Times(), b.Times()) {
		t.Fatal("timestamps differ")
	}
	for s := 0; s < a.NumSessions(); s++ {
		ai := a.SessionItems(sessions.SessionID(s))
		bi := b.SessionItems(sessions.SessionID(s))
		if !reflect.DeepEqual(ai, bi) {
			t.Fatalf("session %d items differ: %v vs %v", s, ai, bi)
		}
	}
	for i := 0; i < a.NumItems(); i++ {
		item := sessions.ItemID(i)
		if a.DF(item) != b.DF(item) {
			t.Fatalf("df(%d) differs: %d vs %d", i, a.DF(item), b.DF(item))
		}
		ap, bp := a.Postings(item), b.Postings(item)
		if len(ap) == 0 && len(bp) == 0 {
			continue
		}
		if !reflect.DeepEqual(ap, bp) {
			t.Fatalf("postings(%d) differ: %v vs %v", i, ap, bp)
		}
		if a.IDF(item) != b.IDF(item) {
			t.Fatalf("idf(%d) differs", i)
		}
	}
}

// TestParallelBuildMatchesSequential: the dataflow build must be
// bit-identical to core.BuildIndex, for several capacities and worker
// counts.
func TestParallelBuildMatchesSequential(t *testing.T) {
	ds := smallDataset(t, 21)
	for _, capacity := range []int{0, 3, 100} {
		seq, err := core.BuildIndex(ds, capacity)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			par, err := Build(dataflow.NewEngine(workers), ds, capacity)
			if err != nil {
				t.Fatal(err)
			}
			indexesEqual(t, seq, par)
		}
	}
}

func TestParallelBuildEmptyDataset(t *testing.T) {
	empty := sessions.FromSessions("empty", nil)
	idx, err := Build(dataflow.NewEngine(4), empty, 100)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumSessions() != 0 {
		t.Errorf("sessions = %d, want 0", idx.NumSessions())
	}
	// The empty index must round-trip through the on-disk format.
	var buf bytes.Buffer
	if err := SaveV2(&buf, idx); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSessions() != 0 || back.NumItems() != 0 {
		t.Error("empty index changed across serialisation")
	}
}

func TestBuildRejectsBadDatasets(t *testing.T) {
	e := dataflow.NewEngine(2)
	sparse := sessions.FromSessions("bad", []sessions.Session{
		{ID: 3, Items: []sessions.ItemID{1}, Times: []int64{10}},
	})
	if _, err := Build(e, sparse, 0); err == nil {
		t.Error("non-dense ids accepted")
	}
	unordered := sessions.FromSessions("bad2", []sessions.Session{
		{ID: 0, Items: []sessions.ItemID{1}, Times: []int64{100}},
		{ID: 1, Items: []sessions.ItemID{2}, Times: []int64{50}},
	})
	if _, err := Build(e, unordered, 0); err == nil {
		t.Error("time-unordered sessions accepted")
	}
}

// TestSerdeRoundTrip: an index read back from a stream (the heap-arena
// path) has the observable state of the original and serialises to the
// same bytes again, so the encoding is canonical.
func TestSerdeRoundTrip(t *testing.T) {
	ds := smallDataset(t, 5)
	for _, capacity := range []int{0, 3, 50} {
		idx, err := core.BuildIndex(ds, capacity)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveV2(&buf, idx); err != nil {
			t.Fatal(err)
		}
		data := bytes.Clone(buf.Bytes())
		back, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		indexesEqual(t, idx, back)
		if again := saveV2Bytes(t, back); !bytes.Equal(again, data) {
			t.Errorf("capacity %d: re-serialised index differs from the file it was read from", capacity)
		}
	}
}

func TestSerdeRoundTripQueriesAgree(t *testing.T) {
	ds := smallDataset(t, 6)
	idx, _ := core.BuildIndex(ds, 0)
	back, err := Load(bytes.NewReader(saveV2Bytes(t, idx)))
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{M: 100, K: 30}
	ra, _ := core.NewRecommender(idx, p)
	rb, _ := core.NewRecommender(back, p)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		q := []sessions.ItemID{sessions.ItemID(rng.Intn(500)), sessions.ItemID(rng.Intn(500))}
		a := ra.Recommend(q, 21)
		b := rb.Recommend(q, 21)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("loaded index disagrees on %v", q)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ds := smallDataset(t, 8)
	idx, _ := core.BuildIndex(ds, 0)
	path := filepath.Join(t.TempDir(), "index.srn")
	if err := SaveFile(path, idx); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	indexesEqual(t, idx, back)
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "no.srn")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte("NOTANIDX plus some payload")))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// TestLoadRejectsTruncation cuts a stream one byte short of, and exactly
// at, the start and the end of every section, and inside the header and
// the table: each prefix must fail to load.
func TestLoadRejectsTruncation(t *testing.T) {
	ds := smallDataset(t, 9)
	idx, _ := core.BuildIndex(ds, 0)
	data := saveV2Bytes(t, idx)
	cuts := []int{0, 8, 9, v2HeaderSize - 1, v2HeaderSize, v2TableEnd - 1}
	for _, sec := range v2Sections(t, data) {
		start, end := int(sec.offset), int(sec.offset+sec.byteLen)
		cuts = append(cuts, start-1, start, end-1)
		if end < len(data) {
			cuts = append(cuts, end)
		}
	}
	for _, cut := range cuts {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d of %d accepted", cut, len(data))
		}
	}
}

// TestLoadRejectsBitFlips flips every bit of the header counts and the
// section table, and random bits of the section payloads: each flip must
// fail to load. (The capacity word, the reserved word and the alignment
// padding between sections are not checked.)
func TestLoadRejectsBitFlips(t *testing.T) {
	ds := smallDataset(t, 10)
	idx, _ := core.BuildIndex(ds, 0)
	pristine := saveV2Bytes(t, idx)
	flip := func(pos, bit int) {
		data := bytes.Clone(pristine)
		data[pos] ^= 1 << bit
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("flip of bit %d at byte %d loaded cleanly", bit, pos)
		}
	}
	for _, r := range [][2]int{{8, 24}, {32, 36}, {v2HeaderSize, v2TableEnd}} {
		for pos := r[0]; pos < r[1]; pos++ {
			for bit := 0; bit < 8; bit++ {
				flip(pos, bit)
			}
		}
	}
	secs := v2Sections(t, pristine)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		sec := secs[rng.Intn(len(secs))]
		flip(int(sec.offset)+rng.Intn(int(sec.byteLen)), rng.Intn(8))
	}
}

// TestV1ForgedCountsDoNotOverAllocate: a 30-byte file in the retired v1
// format whose header claims 2^31 sessions must fail without allocating
// anything like 2^31 elements. (Found by FuzzLoad when v1 was still decoded:
// its loader eagerly allocated gigabytes from the claim. The file is now
// refused at the magic, before any count is read.)
func TestV1ForgedCountsDoNotOverAllocate(t *testing.T) {
	var payload bytes.Buffer
	fw, err := flate.NewWriter(&payload, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	var varint [binary.MaxVarintLen64]byte
	for _, v := range []uint64{1<<31 - 1, 1<<31 - 1, 0} { // numSessions, numItems, capacity
		n := binary.PutUvarint(varint[:], v)
		fw.Write(varint[:n])
	}
	fw.Close()
	data := append(bytes.Clone(magicV1[:]), payload.Bytes()...)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<22 {
		t.Errorf("forged header drove %d bytes of allocation, want well under 4MB", grew)
	}
}

func BenchmarkBuildParallel(b *testing.B) {
	ds, err := synth.Generate(synth.Small(1))
	if err != nil {
		b.Fatal(err)
	}
	e := dataflow.NewEngine(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(e, ds, 500); err != nil {
			b.Fatal(err)
		}
	}
}
