package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"serenade/internal/core"
	"serenade/internal/sessions"
)

// On-disk format v2 ("SRNIDX02"): the CSR arena, verbatim.
//
//	[0:8)    magic "SRNIDX02"
//	[8:16)   uint64 numSessions          (little-endian, like all fields)
//	[16:24)  uint64 numItems
//	[24:32)  uint64 capacity
//	[32:36)  uint32 section count (7)
//	[36:40)  uint32 reserved (0)
//	[40:E)   section table: 7 × {uint32 id, uint32 crc32, uint64 offset,
//	         uint64 byteLen}, ids 1..7 in order, offsets absolute and
//	         8-byte aligned, sections non-overlapping and in offset order
//	[E:)     section payloads: raw little-endian arrays, 8-byte aligned
//
// Sections, in id order: session timestamps (int64), posting offsets
// (uint32, numItems+1), posting data (uint32 session ids), session-item
// offsets (uint32, numSessions+1), session-item data (uint32 item ids),
// document frequencies (int32) and idf weights (float64). Item i's posting
// list is row i of the posting arrays. Each section's CRC-32 (IEEE) covers
// exactly its payload bytes.
//
// The payload arrays are the in-memory representation, so a loader on a
// little-endian host may map the file and alias the sections directly —
// no decode step, no per-list allocation, and the kernel pages the index
// in on demand. Big-endian hosts (and io.Reader loads) fall back to
// reading into a single aligned arena.

var magicV2 = [8]byte{'S', 'R', 'N', 'I', 'D', 'X', '0', '2'}

const (
	v2HeaderSize   = 40
	v2SectionSize  = 24
	v2NumSections  = 7
	v2TableEnd     = v2HeaderSize + v2NumSections*v2SectionSize // where the payloads begin
	v2CountLimit   = 1 << 31
	secTimes       = 1
	secPostOffsets = 2
	secPostData    = 3
	secItemOffsets = 4
	secItemData    = 5
	secDF          = 6
	secIDF         = 7
)

// hostLittleEndian gates the zero-copy reinterpretation of mapped sections;
// big-endian hosts decode copies instead.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// v2Layout holds the section payloads of an index about to be written and
// their file offsets.
type v2Layout struct {
	payloads [v2NumSections][]byte
	offsets  [v2NumSections]uint64
}

func buildV2Layout(idx *core.Index) v2Layout {
	c := idx.CSR()
	var l v2Layout
	l.payloads = [v2NumSections][]byte{
		int64LEBytes(c.Times),
		uint32LEBytes(c.PostingOffsets),
		sessionIDLEBytes(c.PostingData),
		uint32LEBytes(c.SessionItemOffsets),
		itemIDLEBytes(c.SessionItemData),
		int32LEBytes(c.DF),
		float64LEBytes(c.IDF),
	}
	off := uint64(v2TableEnd)
	for i, p := range l.payloads {
		l.offsets[i] = off
		off = align8(off + uint64(len(p)))
	}
	return l
}

// SaveV2 serialises the index to w in format v2.
func SaveV2(w io.Writer, idx *core.Index) error {
	l := buildV2Layout(idx)

	bw := bufio.NewWriterSize(w, 1<<16)
	var header [v2TableEnd]byte
	copy(header[0:8], magicV2[:])
	le := binary.LittleEndian
	le.PutUint64(header[8:16], uint64(idx.NumSessions()))
	le.PutUint64(header[16:24], uint64(idx.NumItems()))
	le.PutUint64(header[24:32], uint64(idx.Capacity()))
	le.PutUint32(header[32:36], v2NumSections)
	for i, p := range l.payloads {
		entry := header[v2HeaderSize+i*v2SectionSize:]
		le.PutUint32(entry[0:4], uint32(i+1))
		le.PutUint32(entry[4:8], crc32.ChecksumIEEE(p))
		le.PutUint64(entry[8:16], l.offsets[i])
		le.PutUint64(entry[16:24], uint64(len(p)))
	}
	if _, err := bw.Write(header[:]); err != nil {
		return err
	}
	var pad [8]byte
	for i, p := range l.payloads {
		if _, err := bw.Write(p); err != nil {
			return err
		}
		end := l.offsets[i] + uint64(len(p))
		if n := align8(end) - end; n > 0 {
			if _, err := bw.Write(pad[:n]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// loadV2Stream reads a v2 stream (after its magic) from an io.Reader: the
// remainder is copied into one 8-byte-aligned heap arena and the sections
// are reinterpreted in place, so allocations stay O(1) in the index size.
func loadV2Stream(r io.Reader) (*core.Index, error) {
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading v2 payload: %v", ErrCorrupt, err)
	}
	buf := alignedBuffer(int64(8 + len(rest)))
	copy(buf, magicV2[:])
	copy(buf[8:], rest)
	return parseV2(buf, core.Arena{Bytes: int64(len(buf))})
}

// loadV2Into reads a v2 file of known size into one aligned heap arena — the
// fallback when mmap is unavailable or failed.
func loadV2Into(r io.Reader, size int64) (*core.Index, error) {
	if size < v2HeaderSize || size != int64(int(size)) {
		return nil, fmt.Errorf("%w: implausible v2 file size %d", ErrCorrupt, size)
	}
	buf := alignedBuffer(size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: reading v2 file: %v", ErrCorrupt, err)
	}
	return parseV2(buf, core.Arena{Bytes: size})
}

// alignedBuffer allocates an n-byte buffer whose base address is 8-byte
// aligned, so fixed-width sections can be reinterpreted in place. (A plain
// []byte allocation may be placed by the tiny allocator without alignment.)
func alignedBuffer(n int64) []byte {
	if n <= 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// parseV2 validates a complete v2 image (header, section table, per-section
// CRCs, structural invariants) and assembles the index over it. On
// little-endian hosts the index aliases buf — zero copies, zero per-posting
// allocations — and owns the arena described by arena; big-endian hosts
// decode heap copies and release the arena via its Close immediately. Every
// failure is reported as ErrCorrupt without closing the arena (the caller
// unmaps on error).
func parseV2(buf []byte, arena core.Arena) (*core.Index, error) {
	if len(buf) < v2HeaderSize {
		return nil, fmt.Errorf("%w: truncated v2 header", ErrCorrupt)
	}
	if [8]byte(buf[0:8]) != magicV2 {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	le := binary.LittleEndian
	numSessions64 := le.Uint64(buf[8:16])
	numItems64 := le.Uint64(buf[16:24])
	capacity64 := le.Uint64(buf[24:32])
	if numSessions64 > v2CountLimit || numItems64 > v2CountLimit || capacity64 > v2CountLimit {
		return nil, fmt.Errorf("%w: implausible header", ErrCorrupt)
	}
	if n := le.Uint32(buf[32:36]); n != v2NumSections {
		return nil, fmt.Errorf("%w: section count %d, want %d; rebuild the index with serenade-indexer", ErrCorrupt, n, v2NumSections)
	}
	if len(buf) < v2TableEnd {
		return nil, fmt.Errorf("%w: truncated v2 section table", ErrCorrupt)
	}

	// Expected byte lengths of the fixed-size sections; 0 marks the two
	// variable-length data sections (their lengths are cross-checked against
	// the offset arrays by core.NewIndexFromCSR).
	expect := [v2NumSections]uint64{
		numSessions64 * 8,
		(numItems64 + 1) * 4,
		0,
		(numSessions64 + 1) * 4,
		0,
		numItems64 * 4,
		numItems64 * 8,
	}
	elemSize := [v2NumSections]uint64{8, 4, 4, 4, 4, 4, 8}

	var payloads [v2NumSections][]byte
	prevEnd := uint64(v2TableEnd)
	for i := range payloads {
		entry := buf[v2HeaderSize+i*v2SectionSize:]
		id := le.Uint32(entry[0:4])
		crc := le.Uint32(entry[4:8])
		offset := le.Uint64(entry[8:16])
		byteLen := le.Uint64(entry[16:24])
		if id != uint32(i+1) {
			return nil, fmt.Errorf("%w: section %d has id %d", ErrCorrupt, i, id)
		}
		if offset%8 != 0 {
			return nil, fmt.Errorf("%w: section %d misaligned at offset %d", ErrCorrupt, id, offset)
		}
		if offset < prevEnd {
			return nil, fmt.Errorf("%w: section %d overlaps its predecessor", ErrCorrupt, id)
		}
		if offset > uint64(len(buf)) || byteLen > uint64(len(buf))-offset {
			return nil, fmt.Errorf("%w: section %d extends past end of file", ErrCorrupt, id)
		}
		if expect[i] != 0 && byteLen != expect[i] {
			return nil, fmt.Errorf("%w: section %d has %d bytes, want %d", ErrCorrupt, id, byteLen, expect[i])
		}
		if byteLen%elemSize[i] != 0 {
			return nil, fmt.Errorf("%w: section %d length %d not a multiple of %d", ErrCorrupt, id, byteLen, elemSize[i])
		}
		p := buf[offset : offset+byteLen]
		if crc32.ChecksumIEEE(p) != crc {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, id)
		}
		payloads[i] = p
		prevEnd = offset + byteLen
	}

	c := core.CSR{
		Times:              int64Section(payloads[secTimes-1]),
		PostingOffsets:     uint32Section(payloads[secPostOffsets-1]),
		PostingData:        sessionIDSection(payloads[secPostData-1]),
		SessionItemOffsets: uint32Section(payloads[secItemOffsets-1]),
		SessionItemData:    itemIDSection(payloads[secItemData-1]),
		DF:                 int32Section(payloads[secDF-1]),
		IDF:                float64Section(payloads[secIDF-1]),
	}
	releaseNow := func() error { return nil }
	if !hostLittleEndian {
		// The sections above are heap copies: the index must not retain the
		// arena, which is released as soon as construction succeeds.
		if arena.Close != nil {
			releaseNow = arena.Close
		}
		arena = core.Arena{}
	}
	idx, err := core.NewIndexFromCSR(c, int(capacity64), arena)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if cerr := releaseNow(); cerr != nil {
		return nil, cerr
	}
	return idx, nil
}

// --- typed-slice ↔ little-endian-bytes conversions ---
//
// On little-endian hosts these are zero-copy reinterpretations (the caller
// guarantees 8-byte alignment of the byte slices); on big-endian hosts they
// encode/decode through explicit copies. All the element types are
// fixed-width with no padding, so the views are exact.

func int64Section(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func float64Section(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func uint32Section(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func int32Section(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func sessionIDSection(b []byte) []sessions.SessionID {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*sessions.SessionID)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]sessions.SessionID, len(b)/4)
	for i := range out {
		out[i] = sessions.SessionID(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func itemIDSection(b []byte) []sessions.ItemID {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*sessions.ItemID)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]sessions.ItemID, len(b)/4)
	for i := range out {
		out[i] = sessions.ItemID(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func int64LEBytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

func float64LEBytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func uint32LEBytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

func int32LEBytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

func sessionIDLEBytes(s []sessions.SessionID) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

func itemIDLEBytes(s []sessions.ItemID) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}
