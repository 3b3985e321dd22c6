package index

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
	var buf bytes.Buffer
	if err := Save(&buf, idx); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("SRNIDX01garbage"))
	f.Add([]byte{})

	// v2 seeds: a valid section-table file, truncations that cut the header,
	// the table, and a payload, a flipped payload byte, and a hostile table
	// entry — the fuzzer mutates from here into overlap/bounds corner cases.
	var buf2 bytes.Buffer
	if err := SaveV2(&buf2, idx); err != nil {
		f.Fatal(err)
	}
	valid2 := buf2.Bytes()
	tableEnd := int(v2TableEnd(v2NumSections))
	f.Add(valid2)
	f.Add(valid2[:v2HeaderSize-1])
	f.Add(valid2[:tableEnd/2])
	f.Add(valid2[:len(valid2)-3])
	flipped := append([]byte(nil), valid2...)
	flipped[tableEnd+1] ^= 0x40
	f.Add(flipped)
	hostile := append([]byte(nil), valid2...)
	binary.LittleEndian.PutUint64(hostile[v2HeaderSize+2*v2SectionSize+16:], 1<<60) // huge byteLen
	f.Add(hostile)
	f.Add([]byte("SRNIDX02garbage"))

	// v2 remap seeds: the eight-section layout (popularity remap present), a
	// hostile out-of-range remap row with an honest CRC, a file whose header
	// claims eight sections over a seven-entry table, and a duplicate section
	// id — the absent-section case is valid2 above.
	remapped, err := idx.RemappedByPopularity()
	if err != nil {
		f.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := SaveV2(&buf3, remapped); err != nil {
		f.Fatal(err)
	}
	valid3 := buf3.Bytes()
	f.Add(valid3)
	f.Add(valid3[:v2TableEnd(v2MaxSections)-4])
	badRow := append([]byte(nil), valid3...)
	le := binary.LittleEndian
	remapEntry := badRow[v2HeaderSize+(secPostRemap-1)*v2SectionSize:]
	off := le.Uint64(remapEntry[8:16])
	n := le.Uint64(remapEntry[16:24])
	le.PutUint32(badRow[off:], uint32(remapped.NumItems()))
	le.PutUint32(remapEntry[4:8], crc32.ChecksumIEEE(badRow[off:off+n]))
	f.Add(badRow)
	claims8 := append([]byte(nil), valid2...)
	le.PutUint32(claims8[32:36], v2MaxSections)
	f.Add(claims8)
	dupID := append([]byte(nil), valid3...)
	le.PutUint32(dupID[v2HeaderSize+(secPostRemap-1)*v2SectionSize:], secIDF)
	f.Add(dupID)

	// Merge-precondition seeds: a decreasing timestamp and a repeated
	// posting id, each behind an honest CRC.
	for _, data := range mergeViolations(f, valid2) {
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
