package index

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"serenade/internal/core"
	"serenade/internal/sessions"
	"serenade/internal/synth"
)

// FuzzLoad: the index loader must never panic or over-allocate on
// arbitrary bytes — it faces whatever the distributed filesystem hands it.
func FuzzLoad(f *testing.F) {
	// Seed with a valid index file and a few mutations.
	ds, err := synth.Generate(synth.Config{
		Name: "fuzz", NumSessions: 30, NumItems: 20, Days: 3,
		Clusters: 4, ZipfS: 1.3, PStay: 0.8, RevisitProb: 0.05,
		LengthMu: 1.0, LengthSigma: 0.5, MaxLength: 10, Seed: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	idx, err := core.BuildIndex(ds, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})

	// A valid file, truncations that cut the header, the table, and a
	// payload, a flipped payload byte, and a hostile table entry — the
	// fuzzer mutates from here into overlap/bounds corner cases.
	valid := saveV2Bytes(f, idx)
	le := binary.LittleEndian
	entry := func(data []byte, id int) []byte {
		return data[v2HeaderSize+(id-1)*v2SectionSize : v2HeaderSize+id*v2SectionSize]
	}
	patched := func(mutate func(data []byte)) []byte {
		data := bytes.Clone(valid)
		mutate(data)
		return data
	}
	f.Add(valid)
	f.Add(valid[:v2HeaderSize-1])
	f.Add(valid[:v2TableEnd/2])
	f.Add(valid[:len(valid)-3])
	f.Add(patched(func(d []byte) { d[v2TableEnd+1] ^= 0x40 }))
	f.Add(patched(func(d []byte) { le.PutUint64(entry(d, secPostData)[16:], 1<<60) })) // huge byteLen
	f.Add([]byte("SRNIDX02garbage"))

	// Hostile tables: a duplicate section id, no sections, a misaligned
	// and an overlapping offset, and an absurd session count.
	f.Add(patched(func(d []byte) { le.PutUint32(entry(d, secIDF), secDF) }))
	f.Add(patched(func(d []byte) { le.PutUint32(d[32:], 0) }))
	f.Add(patched(func(d []byte) { e := entry(d, secItemData); le.PutUint64(e[8:], le.Uint64(e[8:])+4) }))
	f.Add(patched(func(d []byte) { le.PutUint64(entry(d, secItemOffsets)[8:], le.Uint64(entry(d, secPostData)[8:])) }))
	f.Add(patched(func(d []byte) { le.PutUint64(d[8:], 1<<40) }))

	// Retired formats, which must be refused: the v1 magic over a v2 body,
	// a header claiming eight sections over a seven-entry table, and the
	// files the removed writers produced.
	f.Add(patched(func(d []byte) { copy(d, magicV1[:]) }))
	f.Add(patched(func(d []byte) { le.PutUint32(d[32:], v2NumSections+1) }))
	for _, data := range removedFormats(idx) {
		f.Add(data)
	}

	// Honest CRCs over broken content: an idf weight that disagrees with
	// its document frequency, a decreasing timestamp and a repeated
	// posting id, so only the structural checks can reject them.
	f.Add(patched(func(d []byte) {
		e := entry(d, secIDF)
		off, n := le.Uint64(e[8:]), le.Uint64(e[16:])
		le.PutUint64(d[off:], math.Float64bits(math.Float64frombits(le.Uint64(d[off:]))+1))
		le.PutUint32(e[4:], crc32.ChecksumIEEE(d[off:off+n]))
	}))
	for _, data := range mergeViolations(f, valid) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that loads cleanly must be structurally sound enough to
		// query without panicking.
		rec, err := core.NewRecommender(loaded, core.Params{M: 5, K: 2})
		if err != nil {
			return
		}
		for item := 0; item < loaded.NumItems() && item < 8; item++ {
			rec.Recommend([]sessions.ItemID{sessions.ItemID(item)}, 5)
		}
	})
}
