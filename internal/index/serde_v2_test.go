package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"serenade/internal/core"
	"serenade/internal/sessions"
	"serenade/internal/synth"
)

// saveV2Bytes serialises idx in format v2 and returns the raw file image.
func saveV2Bytes(t testing.TB, idx *core.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveV2(&buf, idx); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeTemp materialises data as a file for LoadFile (the mmap path).
func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.srn")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestV2RoundTripReader(t *testing.T) {
	ds := smallDataset(t, 14)
	idx, err := core.BuildIndex(ds, 50)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(saveV2Bytes(t, idx)))
	if err != nil {
		t.Fatal(err)
	}
	if back.Mapped() {
		t.Error("reader-loaded index claims to be mapped")
	}
	indexesEqual(t, idx, back)
}

func TestV2RoundTripFileMmap(t *testing.T) {
	ds := smallDataset(t, 15)
	idx, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.srn")
	if err := SaveFile(path, idx); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if want := mmapSupported && hostLittleEndian; back.Mapped() != want {
		t.Errorf("Mapped() = %v, want %v on this platform", back.Mapped(), want)
	}
	indexesEqual(t, idx, back)
	heap, mm := back.MemoryBreakdown()
	if back.Mapped() {
		if mm == 0 {
			t.Error("mapped index reports zero mmap-resident bytes")
		}
		if heap >= mm {
			t.Errorf("mapped index heap bytes %d should be far below mmap bytes %d", heap, mm)
		}
	} else if mm != 0 {
		t.Errorf("unmapped index reports %d mmap bytes", mm)
	}
	if err := back.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if !back.Closed() {
		t.Error("Closed() false after Close")
	}
}

func TestV2EmptyIndex(t *testing.T) {
	empty := sessions.FromSessions("empty", nil)
	idx, err := core.BuildIndex(empty, 0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(writeTemp(t, saveV2Bytes(t, idx)))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.NumSessions() != 0 || back.NumItems() != 0 {
		t.Error("empty index changed across v2 serialisation")
	}
}

// TestV2QueriesMatchReference: an mmap-loaded v2 index must answer queries
// bit-identically to the freshly built index, checked against the map-based
// reference recommender — the differential property test for the zero-copy
// path.
func TestV2QueriesMatchReference(t *testing.T) {
	ds := smallDataset(t, 17)
	idx, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(writeTemp(t, saveV2Bytes(t, idx)))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	p := core.Params{M: 100, K: 30}
	rm, err := core.NewRecommender(loaded, p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewReferenceRecommender(idx, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 100; trial++ {
		q := make([]sessions.ItemID, 1+rng.Intn(6))
		for i := range q {
			q[i] = sessions.ItemID(rng.Intn(500))
		}
		got := rm.Recommend(q, 21)
		want := ref.Recommend(q, 21)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mmap-loaded recommender disagrees with reference on %v:\n got %v\nwant %v", q, got, want)
		}
	}
}

// v2Sections parses the section table of a pristine v2 image so corruption
// tests can aim at precise byte ranges.
func v2Sections(t *testing.T, data []byte) []struct{ offset, byteLen uint64 } {
	t.Helper()
	le := binary.LittleEndian
	secs := make([]struct{ offset, byteLen uint64 }, v2NumSections)
	for i := range secs {
		entry := data[v2HeaderSize+i*v2SectionSize:]
		secs[i].offset = le.Uint64(entry[8:16])
		secs[i].byteLen = le.Uint64(entry[16:24])
	}
	return secs
}

// loadBoth runs the corrupt image through both decode paths — the io.Reader
// stream parser and the file-backed (mmap on this platform) parser — and
// requires each to fail with ErrCorrupt without panicking.
func loadBoth(t *testing.T, data []byte, label string) {
	t.Helper()
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("%s: Load err = %v, want ErrCorrupt", label, err)
	}
	if idx, err := LoadFile(writeTemp(t, data)); !errors.Is(err, ErrCorrupt) {
		if idx != nil {
			idx.Close()
		}
		t.Errorf("%s: LoadFile err = %v, want ErrCorrupt", label, err)
	}
}

// TestV2BitFlipEverySection: a single flipped bit inside any of the seven
// payload sections must be caught by that section's CRC.
func TestV2BitFlipEverySection(t *testing.T) {
	ds := smallDataset(t, 19)
	idx, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	pristine := saveV2Bytes(t, idx)
	secs := v2Sections(t, pristine)
	rng := rand.New(rand.NewSource(20))
	for i, sec := range secs {
		if sec.byteLen == 0 {
			continue
		}
		data := append([]byte(nil), pristine...)
		pos := sec.offset + uint64(rng.Int63n(int64(sec.byteLen)))
		data[pos] ^= 1 << uint(rng.Intn(8))
		loadBoth(t, data, fmt.Sprintf("section %d flip at %d", i+1, pos))
	}
}

func TestV2TruncationRejected(t *testing.T) {
	ds := smallDataset(t, 21)
	idx, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	pristine := saveV2Bytes(t, idx)
	for _, cut := range []int{9, v2HeaderSize - 1, v2TableEnd - 4, v2TableEnd + 8, len(pristine) / 2, len(pristine) - 1} {
		loadBoth(t, pristine[:cut], fmt.Sprintf("truncated to %d", cut))
	}
}

// TestV2SectionTableAttacks hand-crafts hostile section tables: overlapping
// sections, offsets or lengths past the end of the file, misaligned offsets,
// wrong ids, and absurd header counts. All must be rejected cleanly — and a
// huge claimed byteLen must fail the bounds check, never drive an
// allocation.
func TestV2SectionTableAttacks(t *testing.T) {
	ds := smallDataset(t, 22)
	idx, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	pristine := saveV2Bytes(t, idx)
	le := binary.LittleEndian

	patch := func(label string, mutate func(data []byte)) {
		data := append([]byte(nil), pristine...)
		mutate(data)
		loadBoth(t, data, label)
	}
	entry := func(data []byte, i int) []byte {
		return data[v2HeaderSize+i*v2SectionSize : v2HeaderSize+(i+1)*v2SectionSize]
	}

	patch("section 3 overlaps section 2", func(d []byte) {
		e2 := entry(d, 1)
		le.PutUint64(entry(d, 2)[8:16], le.Uint64(e2[8:16])) // same offset as predecessor
	})
	patch("offset past end of file", func(d []byte) {
		le.PutUint64(entry(d, 4)[8:16], uint64(len(d))+8)
	})
	patch("byteLen past end of file", func(d []byte) {
		le.PutUint64(entry(d, 2)[16:24], uint64(len(d)))
	})
	patch("huge byteLen must not allocate", func(d []byte) {
		le.PutUint64(entry(d, 2)[16:24], 1<<60)
	})
	patch("offset+byteLen wraps uint64", func(d []byte) {
		le.PutUint64(entry(d, 2)[8:16], ^uint64(0)&^7) // aligned, near max
		le.PutUint64(entry(d, 2)[16:24], 16)
	})
	patch("misaligned section offset", func(d []byte) {
		e := entry(d, 2)
		le.PutUint64(e[8:16], le.Uint64(e[8:16])+4)
	})
	patch("wrong section id", func(d []byte) {
		le.PutUint32(entry(d, 3)[0:4], 9)
	})
	patch("wrong section count", func(d []byte) {
		le.PutUint32(d[32:36], 6)
	})
	patch("implausible session count", func(d []byte) {
		le.PutUint64(d[8:16], 1<<40)
	})
	patch("fixed section resized", func(d []byte) {
		e := entry(d, 5) // df: must be numItems*4 bytes
		le.PutUint64(e[16:24], le.Uint64(e[16:24])-4)
	})
	patch("stale crc after honest resize", func(d []byte) {
		// Shrink the posting-data section AND fix its CRC: the offset arrays
		// now point past the section, which NewIndexFromCSR must reject.
		e := entry(d, 2)
		off, n := le.Uint64(e[8:16]), le.Uint64(e[16:24])
		if n < 8 {
			t.Skip("posting data too small")
		}
		le.PutUint64(e[16:24], n-8)
		le.PutUint32(e[4:8], crc32.ChecksumIEEE(d[off:off+n-8]))
	})
}

// mergeViolations returns copies of a pristine v2 image that break the
// candidate merge's preconditions but keep honest CRCs, so only the
// structural check can reject them: a session timestamp older than its
// predecessor's, and a posting list that repeats a session id.
func mergeViolations(t testing.TB, pristine []byte) map[string][]byte {
	t.Helper()
	le := binary.LittleEndian
	section := func(data []byte, id int) []byte {
		entry := data[v2HeaderSize+(id-1)*v2SectionSize:]
		off, n := le.Uint64(entry[8:16]), le.Uint64(entry[16:24])
		return data[off : off+n]
	}
	reseal := func(data []byte, id int) {
		entry := data[v2HeaderSize+(id-1)*v2SectionSize:]
		le.PutUint32(entry[4:8], crc32.ChecksumIEEE(section(data, id)))
	}
	out := map[string][]byte{}

	data := append([]byte(nil), pristine...)
	times := section(data, secTimes)
	if len(times) < 16 {
		t.Fatal("index too small for a timestamp mutation")
	}
	le.PutUint64(times[len(times)-8:], le.Uint64(times[len(times)-16:])-1)
	reseal(data, secTimes)
	out["times decrease in id"] = data

	data = append([]byte(nil), pristine...)
	offsets, postings := section(data, secPostOffsets), section(data, secPostData)
	for row := 0; row+1 < len(offsets)/4; row++ {
		lo, hi := le.Uint32(offsets[4*row:]), le.Uint32(offsets[4*row+4:])
		if hi-lo >= 2 {
			le.PutUint32(postings[4*(lo+1):], le.Uint32(postings[4*lo:]))
			reseal(data, secPostData)
			out["posting id repeated"] = data
			break
		}
	}
	if len(out) != 2 {
		t.Fatal("no posting list with two entries to mutate")
	}
	return out
}

// TestV2MergePreconditionViolations: images that break the merge's
// preconditions behind honest CRCs are rejected as corrupt on both load
// paths.
func TestV2MergePreconditionViolations(t *testing.T) {
	idx, err := core.BuildIndex(smallDataset(t, 26), 0)
	if err != nil {
		t.Fatal(err)
	}
	for label, data := range mergeViolations(t, saveV2Bytes(t, idx)) {
		loadBoth(t, data, label)
	}
}

// removedFormats returns images of the two formats this loader no longer
// reads: a v1 file (refused at its magic, so the body is immaterial), and a
// v2 file carrying the retired eighth section (an identity posting remap)
// behind an honest table and CRCs.
func removedFormats(idx *core.Index) map[string][]byte {
	v1 := append(bytes.Clone(magicV1[:]), "compressed stream"...)

	le := binary.LittleEndian
	l := buildV2Layout(idx)
	remap := make([]byte, 4*idx.NumItems())
	for i := range idx.NumItems() {
		le.PutUint32(remap[4*i:], uint32(i))
	}
	payloads := append(l.payloads[:], remap)
	tableEnd := v2HeaderSize + len(payloads)*v2SectionSize
	v8 := make([]byte, tableEnd)
	copy(v8, magicV2[:])
	le.PutUint64(v8[8:], uint64(idx.NumSessions()))
	le.PutUint64(v8[16:], uint64(idx.NumItems()))
	le.PutUint64(v8[24:], uint64(idx.Capacity()))
	le.PutUint32(v8[32:], uint32(len(payloads)))
	for i, p := range payloads {
		entry := v8[v2HeaderSize+i*v2SectionSize:]
		le.PutUint32(entry[0:], uint32(i+1))
		le.PutUint32(entry[4:], crc32.ChecksumIEEE(p))
		le.PutUint64(entry[8:], uint64(len(v8)))
		le.PutUint64(entry[16:], uint64(len(p)))
		v8 = append(v8, p...)
		v8 = append(v8, make([]byte, align8(uint64(len(v8)))-uint64(len(v8)))...)
	}
	return map[string][]byte{"v1 stream": v1, "eight-section v2": v8}
}

// TestLoadRejectsRemovedFormats: files in a retired format fail both load
// paths as corrupt, and the error says how to get a file that loads.
func TestLoadRejectsRemovedFormats(t *testing.T) {
	idx, err := core.BuildIndex(smallDataset(t, 23), 0)
	if err != nil {
		t.Fatal(err)
	}
	for label, data := range removedFormats(idx) {
		_, errStream := Load(bytes.NewReader(data))
		_, errFile := LoadFile(writeTemp(t, data))
		for _, err := range []error{errStream, errFile} {
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "serenade-indexer") {
				t.Errorf("%s: err = %v, want ErrCorrupt naming serenade-indexer", label, err)
			}
		}
	}
}

// TestLoadFileV2Allocs pins the headline property of the v2 loader: the
// number of heap allocations is a small constant, independent of how many
// sessions and postings the file holds. A 25× larger index must not cost a
// single extra allocation class.
func TestLoadFileV2Allocs(t *testing.T) {
	if !mmapSupported || !hostLittleEndian {
		t.Skip("zero-copy load not available on this platform")
	}
	build := func(numSessions int) string {
		cfg := synth.Small(33)
		cfg.NumSessions = numSessions
		ds, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := core.BuildIndex(ds, 0)
		if err != nil {
			t.Fatal(err)
		}
		return writeTemp(t, saveV2Bytes(t, idx))
	}
	measure := func(path string) float64 {
		return testing.AllocsPerRun(10, func() {
			idx, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			idx.Close()
		})
	}
	small := measure(build(200))
	large := measure(build(5000))
	if large > small+2 {
		t.Errorf("v2 load allocations scale with index size: %.0f allocs for 200 sessions, %.0f for 5000", small, large)
	}
	// ~2 dozen covers the file handle, stat, mmap bookkeeping, index struct
	// and slice headers; per-posting allocation would be tens of thousands.
	if large > 40 {
		t.Errorf("v2 load performs %.0f allocations, want O(1) (≤40)", large)
	}
}

// --- load benchmarks (EXPERIMENTS.md E13) ---

func BenchmarkLoadFileV2Mmap(b *testing.B) {
	cfg := synth.Small(44)
	cfg.NumSessions = 20_000
	cfg.NumItems = 5_000
	ds, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := core.BuildIndex(ds, 500)
	if err != nil {
		b.Fatal(err)
	}
	path := writeTemp(b, saveV2Bytes(b, idx))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := LoadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		idx.Close()
	}
}
