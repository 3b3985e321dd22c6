package kvstore

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// The memtable. Each shard is an open-addressed index of uint64 words over
// records packed into slabs of anonymous memory (slab_unix.go). Nothing in a
// shard points into the Go heap, so the garbage collector neither scans a
// session nor sizes its headroom by it.
//
// A record is laid out as a snapshot entry, lastAccess(8) | klen(4) |
// vlen(4) | key | value, in a block of the next 16-byte size class. Free
// blocks are kept on one list per class, linked through their first four
// bytes. A record larger than maxSmall gets a slab of its own, which is
// unmapped when the record is freed. A shard's slabs double from 4 KiB to
// slabSize, and memory under mmapMin (the first slabs, a small index) comes
// from the Go heap: a store of a few hundred keys makes no system call and
// takes no page fault per insert.
//
// An index word is hash(24) | stamp(12) | ref(28); 0 is an empty slot.
//   - hash is the top 24 bits of the key's maphash. Its low bits pick the
//     home slot, so growth rehashes from the words alone, and all of it
//     filters probes before a key compare reads a slab.
//   - stamp is lastAccess >> table.shift, mod 4096, so the expiry cursor
//     picks its candidates without reading the slabs.
//   - ref is slab id(14) | offset in 16-byte units(14). Slab ids start at 1,
//     so no word of a held record is 0.
//
// Probing is linear and deletion shifts the rest of the probe run back, so
// the index holds no tombstones.
const (
	recHeader = 16
	classSize = 16
	maxSmall  = 4096
	slabSize  = 256 << 10
	firstSlab = 4 << 10
	mmapMin   = 16 << 10
	minIndex  = 16

	hashBits  = 24
	hashShift = 64 - hashBits
	stampBits = 12
	stampMask = 1<<stampBits - 1
	refBits   = 28
	refMask   = 1<<refBits - 1
	offBits   = 14 // slabSize / classSize == 1 << offBits
	maxSlabs  = 1 << (refBits - offBits)
	maxIndex  = 1 << hashBits

	// reclaimStep is the number of index slots each Put and Delete moves
	// its shard's expiry cursor over.
	reclaimStep = 16
)

var errTableFull = errors.New("kvstore: shard table is full")

// table is what the shards of one store share: the TTL's scale and the
// gauges, which scrapes read without a lock.
type table struct {
	ttl      int64  // nanoseconds; 0 disables expiry
	shift    uint   // stamp = lastAccess >> shift
	ttlTicks uint64 // ttl >> shift: no expired record has a younger stamp
	records  atomic.Int64
	bytes    atomic.Int64 // slab and index bytes
}

func newTable(ttl time.Duration) *table {
	t := &table{ttl: int64(ttl)}
	if t.ttl > 0 {
		// 256 to 511 ticks per TTL; the 12-bit stamp wraps after 8 TTLs or
		// more. A wrapped stamp only delays a reclaim; the exact check in
		// the record decides.
		for t.ttl>>(t.shift+1) >= 256 {
			t.shift++
		}
		t.ttlTicks = uint64(t.ttl >> t.shift)
	}
	return t
}

func (t *table) expired(rec []byte, now int64) bool {
	return t.ttl > 0 && now-int64(binary.LittleEndian.Uint64(rec)) > t.ttl
}

func (t *table) word(hv uint64, now int64, ref uint32) uint64 {
	return hv<<hashShift | (uint64(now)>>t.shift&stampMask)<<refBits | uint64(ref)
}

type shard struct {
	mu sync.Mutex
	t  *table

	mem    []byte   // the index's backing
	index  []uint64 // len is a power of two, or 0 before the first insert
	held   int
	cursor int // next slot the expiry cursor looks at

	slabs  [][]byte // slabs[0] stays nil
	spare  []uint32 // ids of unmapped slabs, for reuse
	free   [maxSmall/classSize + 1]uint32
	bumpID uint32 // slab being carved; 0 before the first
	bumpAt int    // its first unused byte
	carved int    // slabs carved so far, which sizes the next

	onHeap bool // set by Close: from then on memory comes from the Go heap
}

func newShard(t *table) *shard {
	return &shard{t: t, slabs: make([][]byte, 1)}
}

func classOf(size int) int { return (size + classSize - 1) / classSize }

func recSize(rec []byte) int {
	return recHeader + int(binary.LittleEndian.Uint32(rec[8:])) + int(binary.LittleEndian.Uint32(rec[12:]))
}

func recValue(rec []byte) []byte {
	k := recHeader + int(binary.LittleEndian.Uint32(rec[8:]))
	return rec[k : k+int(binary.LittleEndian.Uint32(rec[12:]))]
}

func writeRecord(rec []byte, now int64, key string, value []byte) {
	binary.LittleEndian.PutUint64(rec, uint64(now))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(value)))
	copy(rec[recHeader:], key)
	copy(rec[recHeader+len(key):], value)
}

func (sh *shard) record(ref uint32) []byte {
	return sh.slabs[ref>>offBits][int(ref&(1<<offBits-1))*classSize:]
}

func (sh *shard) refAt(i int) uint32 { return uint32(sh.index[i] & refMask) }

// find returns the slot holding key, or else false and the empty slot that
// ended the probe (-1 while the index is empty).
func (sh *shard) find(key string, hv uint64) (int, bool) {
	if len(sh.index) == 0 {
		return -1, false
	}
	mask := len(sh.index) - 1
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		w := sh.index[i]
		if w == 0 {
			return i, false
		}
		if w>>hashShift != hv {
			continue
		}
		rec := sh.record(uint32(w & refMask))
		if int(binary.LittleEndian.Uint32(rec[8:])) == len(key) && string(rec[recHeader:recHeader+len(key)]) == key {
			return i, true
		}
	}
}

// set stores value under key with lastAccess now. A rewrite whose record
// keeps its block stays in place.
func (sh *shard) set(key string, value []byte, hv uint64, now int64) error {
	if (sh.held+1)*4 > len(sh.index)*3 {
		if err := sh.grow(); err != nil {
			return err
		}
	}
	size := recHeader + len(key) + len(value)
	i, found := sh.find(key, hv)
	if found {
		ref := sh.refAt(i)
		if rec := sh.record(ref); sh.fits(ref, recSize(rec), size) {
			writeRecord(rec, now, key, value)
			sh.index[i] = sh.t.word(hv, now, ref)
			return nil
		}
	}
	ref, err := sh.alloc(size)
	if err != nil {
		return err
	}
	writeRecord(sh.record(ref), now, key, value)
	if found {
		sh.release(sh.refAt(i))
	} else {
		sh.held++
		sh.t.records.Add(1)
	}
	sh.index[i] = sh.t.word(hv, now, ref)
	return nil
}

// fits reports whether a record of size can replace, in its block, the
// record at ref of size old.
func (sh *shard) fits(ref uint32, old, size int) bool {
	if old > maxSmall {
		n := len(sh.slabs[ref>>offBits])
		return size > maxSmall && size <= n && size > n/2
	}
	return size <= maxSmall && classOf(size) == classOf(old)
}

// removeAt frees the record at slot i and closes the hole by shifting back
// each later word of the probe run that may live there.
func (sh *shard) removeAt(i int) {
	sh.release(sh.refAt(i))
	mask := len(sh.index) - 1
	for j := (i + 1) & mask; sh.index[j] != 0; j = (j + 1) & mask {
		home := int(sh.index[j]>>hashShift) & mask
		if (j-home)&mask >= (j-i)&mask {
			sh.index[i] = sh.index[j]
			i = j
		}
	}
	sh.index[i] = 0
	sh.held--
	sh.t.records.Add(-1)
}

// reclaim moves the expiry cursor over reclaimStep slots, frees the expired
// records it passes and reports how many it freed.
func (sh *shard) reclaim(now int64) int {
	t := sh.t
	if t.ttl <= 0 || sh.held == 0 {
		return 0
	}
	nowStamp := uint64(now) >> t.shift
	mask := len(sh.index) - 1
	freed := 0
	for n := 0; n < reclaimStep; n++ {
		i := sh.cursor
		w := sh.index[i]
		// One branch, rarely taken: an empty slot or a fresh stamp (the
		// hash bits above the stamp cancel mod 4096) reads no record.
		stale := b2u(w != 0) & b2u((nowStamp-w>>refBits)&stampMask >= t.ttlTicks)
		if stale != 0 && t.expired(sh.record(uint32(w&refMask)), now) {
			sh.removeAt(i) // a later word may have shifted into i: look again
			freed++
			continue
		}
		sh.cursor = (i + 1) & mask
	}
	return freed
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// grow doubles the index. Home slots come from the words' hash bits, so no
// record is read.
func (sh *shard) grow() error {
	n := max(minIndex, 2*len(sh.index))
	if n > maxIndex {
		return errTableFull
	}
	mem, err := sh.mapBytes(n * 8)
	if err != nil {
		return err
	}
	index := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n)
	mask := n - 1
	for _, w := range sh.index {
		if w == 0 {
			continue
		}
		i := int(w>>hashShift) & mask
		for index[i] != 0 {
			i = (i + 1) & mask
		}
		index[i] = w
	}
	sh.unmap(sh.mem)
	sh.t.bytes.Add(int64(len(mem) - len(sh.mem)))
	sh.mem, sh.index, sh.cursor = mem, index, 0
	return nil
}

// alloc returns a block for a record of size: from its class's free list,
// else carved from the newest slab.
func (sh *shard) alloc(size int) (uint32, error) {
	if size > maxSmall {
		id, err := sh.newSlab(size)
		return id << offBits, err
	}
	c := classOf(size)
	if ref := sh.free[c]; ref != 0 {
		sh.free[c] = binary.LittleEndian.Uint32(sh.record(ref))
		return ref, nil
	}
	n := c * classSize
	if end := len(sh.slabs[sh.bumpID]); sh.bumpAt+n > end {
		if sh.bumpAt < end {
			// The tail too short for this record is a free block of its own.
			sh.push(sh.bumpID<<offBits|uint32(sh.bumpAt/classSize), (end-sh.bumpAt)/classSize)
			sh.bumpAt = end
		}
		id, err := sh.newSlab(min(slabSize, firstSlab<<min(sh.carved, 16)))
		if err != nil {
			return 0, err
		}
		sh.bumpID, sh.bumpAt = id, 0
		sh.carved++
	}
	ref := sh.bumpID<<offBits | uint32(sh.bumpAt/classSize)
	sh.bumpAt += n
	return ref, nil
}

func (sh *shard) push(ref uint32, class int) {
	binary.LittleEndian.PutUint32(sh.record(ref), sh.free[class])
	sh.free[class] = ref
}

// release frees the block of the record at ref.
func (sh *shard) release(ref uint32) {
	size := recSize(sh.record(ref))
	if size <= maxSmall {
		sh.push(ref, classOf(size))
		return
	}
	id := ref >> offBits
	b := sh.slabs[id]
	sh.slabs[id] = nil
	sh.spare = append(sh.spare, id)
	sh.unmap(b)
	sh.t.bytes.Add(-int64(len(b)))
}

func (sh *shard) newSlab(n int) (uint32, error) {
	if len(sh.spare) == 0 && len(sh.slabs) >= maxSlabs {
		return 0, errTableFull
	}
	b, err := sh.mapBytes(n)
	if err != nil {
		return 0, err
	}
	sh.t.bytes.Add(int64(n))
	if k := len(sh.spare); k > 0 {
		id := sh.spare[k-1]
		sh.spare = sh.spare[:k-1]
		sh.slabs[id] = b
		return id, nil
	}
	sh.slabs = append(sh.slabs, b)
	return uint32(len(sh.slabs) - 1), nil
}

func (sh *shard) mapBytes(n int) ([]byte, error) {
	if sh.onHeap || n < mmapMin {
		return make([]byte, n), nil
	}
	return mapBytes(n)
}

func (sh *shard) unmap(b []byte) {
	if !sh.onHeap && len(b) >= mmapMin {
		unmapBytes(b)
	}
}

// appendLive appends the shard's unexpired records to dst in snapshot entry
// layout and reports how many it appended.
func (sh *shard) appendLive(dst []byte, now int64) ([]byte, int) {
	n := 0
	for _, w := range sh.index {
		if w == 0 {
			continue
		}
		rec := sh.record(uint32(w & refMask))
		if sh.t.expired(rec, now) {
			continue
		}
		dst = append(dst, rec[:recSize(rec)]...)
		n++
	}
	return dst, n
}

// moveToHeap copies the shard's slabs and index onto the Go heap and unmaps
// the originals. Close calls it under the shard lock, so reads after Close
// still work and no mapping outlives the store.
func (sh *shard) moveToHeap() {
	if sh.onHeap {
		return
	}
	for id, b := range sh.slabs {
		if len(b) >= mmapMin {
			sh.slabs[id] = append([]byte(nil), b...)
			unmapBytes(b)
		}
	}
	if len(sh.mem) >= mmapMin {
		mem := append([]byte(nil), sh.mem...)
		unmapBytes(sh.mem)
		sh.mem, sh.index = mem, unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(sh.index))
	}
	sh.onHeap = true
}
