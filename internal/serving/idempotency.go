package serving

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// replayTable retains the responses of keyed requests, so a retry whose
// first attempt landed is answered from here instead of appending the click
// again. It is a fixed array of 4-way buckets, each under its own mutex, so
// every operation compares at most four slots at any fill level. An entry
// expires a fixed TTL after insert, checked on lookup. An insert takes the
// identity's own slot, else the bucket's oldest: an empty or expired slot is
// older than any live one, and at capacity the oldest live entry is evicted.
// Slot buffers grow on first use and are then reused in place.
type replayTable struct {
	seed    maphash.Seed
	ttl     int64 // nanoseconds
	now     func() time.Time
	buckets []replayBucket
	// occupied counts slots that hold an entry, live or awaiting reuse.
	occupied atomic.Int64
}

type replayBucket struct {
	mu    sync.Mutex
	slots [4]replaySlot
}

// replaySlot is one retained response: entry holds the request identity
// (its first idLen bytes) followed by the response body. expires is the
// insert time plus the TTL in Unix nanoseconds; zero marks a slot never used.
type replaySlot struct {
	hash    uint64
	expires int64
	idLen   int
	entry   []byte
}

// newReplayTable returns a table of at least entries slots.
func newReplayTable(entries int, ttl time.Duration, now func() time.Time) *replayTable {
	n := (entries + len(replayBucket{}.slots) - 1) / len(replayBucket{}.slots)
	return &replayTable{seed: maphash.MakeSeed(), ttl: int64(ttl), now: now, buckets: make([]replayBucket, n)}
}

func (t *replayTable) bucket(id []byte) (uint64, *replayBucket) {
	h := maphash.Bytes(t.seed, id)
	return h, &t.buckets[h%uint64(len(t.buckets))]
}

// lookup appends the live response stored under id to dst.
func (t *replayTable) lookup(id, dst []byte) ([]byte, bool) {
	h, b := t.bucket(id)
	now := t.now().UnixNano()
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.slots {
		sl := &b.slots[i]
		if sl.hash == h && now < sl.expires && bytes.Equal(sl.entry[:sl.idLen], id) {
			return append(dst, sl.entry[sl.idLen:]...), true
		}
	}
	return dst, false
}

// insert stores a copy of body under id for the TTL.
func (t *replayTable) insert(id, body []byte) {
	h, b := t.bucket(id)
	now := t.now().UnixNano()
	b.mu.Lock()
	defer b.mu.Unlock()
	sl := &b.slots[0]
	for i := range b.slots {
		c := &b.slots[i]
		if c.hash == h && bytes.Equal(c.entry[:c.idLen], id) {
			sl = c
			break
		}
		if c.expires < sl.expires {
			sl = c
		}
	}
	if sl.expires == 0 {
		t.occupied.Add(1)
	}
	sl.hash, sl.expires, sl.idLen = h, now+t.ttl, len(id)
	sl.entry = append(append(slices.Grow(sl.entry[:0], len(id)+len(body)), id...), body...)
}

// appendReplayID appends a keyed request's identity to dst: the session key
// (length-prefixed), the item, the consent flag and the client's key. A key
// reused on another session, item or consent flag is a different request.
func appendReplayID(dst []byte, req *Request, key string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(req.SessionKey)))
	dst = append(dst, req.SessionKey...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.Item))
	dst = strconv.AppendBool(dst, req.Consent)
	return append(dst, key...)
}
