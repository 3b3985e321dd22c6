// Package kvstore implements an embedded key-value store with per-entry
// time-to-live, used by the serving layer to colocate evolving user sessions
// with recommendation requests on the serving machine.
//
// It stands in for the RocksDB instance the paper deploys on each Serenade
// pod (§4.2) and reproduces the contract the paper relies on: machine-local
// reads and writes in microseconds, durability via a write-ahead log, and
// automatic removal of session data after a configurable period of
// inactivity (30 minutes in production). The store is a sharded in-memory
// hash table with an append-only WAL and snapshot compaction; it is not an
// LSM tree because the paper's workload (small values, hot working set,
// aggressive TTL) never accumulates data beyond memory. The table keeps its
// records in slabs outside the Go heap (table.go), and expiry is amortised
// over writes: nothing ever walks the whole table.
//
// Durability contract: a Put or Delete that returns nil is recoverable after
// a crash, subject to the WAL sync policy — immediately with SyncAlways,
// within one group-commit interval with SyncInterval, and only as far as the
// OS page cache with SyncNever. The commit protocol (WAL append + memtable
// publish under a shared commit lock, Compact's cut and WAL trim under the
// exclusive side) guarantees that no acknowledged write can fall between a
// snapshot and the trimmed WAL. Every step of the append → sync → publish →
// snapshot → rename → trim sequence carries a named failpoint
// (internal/failpoint) so the kill-at-every-point crash test can prove the
// contract at each intermediate state.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"serenade/internal/failpoint"
)

// SyncPolicy selects when WAL appends are fsynced to disk.
type SyncPolicy string

const (
	// SyncAlways fsyncs inside every Put/Delete before it returns: an
	// acknowledged write survives any crash. Highest latency.
	SyncAlways SyncPolicy = "always"
	// SyncInterval group-commits: a background flusher fsyncs all appends
	// since the last flush every Options.SyncInterval. A crash can lose at
	// most one interval of acknowledged writes. The default.
	SyncInterval SyncPolicy = "interval"
	// SyncNever leaves durability to the OS page cache: writes survive a
	// process crash but not a machine crash.
	SyncNever SyncPolicy = "never"
)

// DefaultSyncInterval is the group-commit flush period when
// Options.SyncInterval is zero.
const DefaultSyncInterval = 5 * time.Millisecond

// ParseSyncPolicy validates a policy string (e.g. from a -wal-sync flag).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncInterval, SyncNever:
		return SyncPolicy(s), nil
	case "":
		return SyncInterval, nil
	}
	return "", fmt.Errorf("kvstore: unknown sync policy %q (want always, interval or never)", s)
}

// Failpoint names, in commit-sequence order. Each marks the instant before
// the named effect happens; a hook returning failpoint.ErrKilled simulates a
// crash with all earlier effects on disk and none of the later ones.
const (
	// FailWALAppend fires before the record is written to the WAL.
	FailWALAppend = "kvstore/wal-append"
	// FailWALAppendPartial writes only half the record first — the torn
	// tail a real crash mid-write leaves behind.
	FailWALAppendPartial = "kvstore/wal-append-partial"
	// FailWALSync fires after the append, before the SyncAlways fsync.
	FailWALSync = "kvstore/wal-sync"
	// FailMemtablePublish fires after the (synced) append, before the entry
	// becomes visible in the memtable.
	FailMemtablePublish = "kvstore/memtable-publish"
	// FailCompactSnapshotWrite fires mid-serialization of the temp
	// snapshot, leaving a partial temp file.
	FailCompactSnapshotWrite = "kvstore/compact-snapshot-write"
	// FailCompactSnapshotSync fires after the temp snapshot is fully
	// written, before its fsync.
	FailCompactSnapshotSync = "kvstore/compact-snapshot-sync"
	// FailCompactSnapshotRename fires before the temp snapshot is renamed
	// over the live one.
	FailCompactSnapshotRename = "kvstore/compact-snapshot-rename"
	// FailCompactWALTrim fires after the snapshot is installed, before the
	// WAL trim starts: recovery sees the new snapshot plus the full WAL.
	FailCompactWALTrim = "kvstore/compact-wal-trim"
	// FailCompactWALSwapRename fires after the trimmed WAL is written and
	// synced, before it is renamed over the live WAL.
	FailCompactWALSwapRename = "kvstore/compact-wal-swap-rename"
	// FailCompactWALInstall fires after the trim rename, before the store
	// swaps its file handle. Kill-only: arming it with a plain error would
	// leave the handle pointing at the unlinked old WAL.
	FailCompactWALInstall = "kvstore/compact-wal-install"
)

// CrashPoints lists every failpoint in the commit/compact sequence, in
// order, for kill-at-every-point harnesses.
var CrashPoints = []string{
	FailWALAppend,
	FailWALAppendPartial,
	FailWALSync,
	FailMemtablePublish,
	FailCompactSnapshotWrite,
	FailCompactSnapshotSync,
	FailCompactSnapshotRename,
	FailCompactWALTrim,
	FailCompactWALSwapRename,
	FailCompactWALInstall,
}

// Options configures a Store.
type Options struct {
	// Dir is the durability directory for the WAL and snapshots. If empty,
	// the store is memory-only (used in tests and for ephemeral caches).
	Dir string
	// Shards is the number of lock shards; it must be a power of two.
	// Defaults to 16.
	Shards int
	// TTL is the sliding inactivity window after which entries expire.
	// Zero disables expiry.
	TTL time.Duration
	// Sync is the WAL durability policy; empty means SyncInterval.
	Sync SyncPolicy
	// SyncInterval is the group-commit flush period for SyncInterval; zero
	// means DefaultSyncInterval.
	SyncInterval time.Duration
	// Now supplies the clock; defaults to time.Now. Tests inject a fake.
	Now func() time.Time
}

// Store is a TTL key-value store, safe for concurrent use.
type Store struct {
	opts   Options
	shards []*shard
	tab    *table
	seed   maphash.Seed

	ops opCounters

	// commitMu makes the WAL-append + memtable-publish pair atomic with
	// respect to Compact: writers hold the shared side across both steps;
	// Compact's cut and WAL trim hold the exclusive side. Without it a
	// Compact landing between the two steps would snapshot a memtable
	// missing the entry and trim the WAL record away — losing an
	// acknowledged write on the next recovery. Lock order: commitMu before
	// walMu before shard locks.
	commitMu sync.RWMutex

	// compactMu serializes whole Compact calls (their temp files collide).
	compactMu sync.Mutex

	// walMu protects the WAL handle and its append/sync bookkeeping.
	walMu   sync.Mutex
	wal     *os.File
	walSize int64 // append offset; the compaction cut is taken from it
	dirty   int   // records appended since the last successful fsync
	closed  bool

	flushStop chan struct{}
	flushDone chan struct{}
}

// opCounters tracks store operations for the serving metrics endpoint.
type opCounters struct {
	gets              atomic.Uint64
	hits              atomic.Uint64
	puts              atomic.Uint64
	deletes           atomic.Uint64
	evictions         atomic.Uint64
	walBytes          atomic.Uint64
	fsyncs            atomic.Uint64
	fsyncNanos        atomic.Uint64
	fsyncBatchRecords atomic.Uint64
	unknownWALOps     atomic.Uint64
	snapshotFallbacks atomic.Uint64
}

// Metrics is a snapshot of the store's operation counters. Evictions count
// entries dropped for TTL expiry, by a write's expiry cursor or lazily on
// read — the session-loss signal a Serenade operator watches next to
// request rate.
type Metrics struct {
	Gets      uint64
	Hits      uint64
	Puts      uint64
	Deletes   uint64
	Evictions uint64
	WALBytes  uint64
	// Fsyncs counts WAL fsync calls; FsyncNanos is their total duration and
	// FsyncBatchRecords the appends they made durable, so fsync latency and
	// group-commit batch size fall out as ratios.
	Fsyncs            uint64
	FsyncNanos        uint64
	FsyncBatchRecords uint64
	// UnknownWALOps counts WAL records with a valid checksum but an
	// unrecognized opcode; replay stops conservatively at the first one.
	UnknownWALOps uint64
	// SnapshotFallbacks counts recoveries that rejected a corrupt snapshot
	// and fell back to WAL-only replay.
	SnapshotFallbacks uint64
}

// Metrics returns the operation counters accumulated since Open.
func (s *Store) Metrics() Metrics {
	return Metrics{
		Gets:              s.ops.gets.Load(),
		Hits:              s.ops.hits.Load(),
		Puts:              s.ops.puts.Load(),
		Deletes:           s.ops.deletes.Load(),
		Evictions:         s.ops.evictions.Load(),
		WALBytes:          s.ops.walBytes.Load(),
		Fsyncs:            s.ops.fsyncs.Load(),
		FsyncNanos:        s.ops.fsyncNanos.Load(),
		FsyncBatchRecords: s.ops.fsyncBatchRecords.Load(),
		UnknownWALOps:     s.ops.unknownWALOps.Load(),
		SnapshotFallbacks: s.ops.snapshotFallbacks.Load(),
	}
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store is closed")

const (
	walName      = "wal.log"
	snapshotName = "snapshot.db"

	opPut    = byte(1)
	opDelete = byte(2)

	snapshotMagic = uint32(0x53524e44) // "SRND"
)

// Open creates or recovers a store. When Options.Dir is non-empty, a prior
// snapshot and WAL found there are replayed.
func Open(opts Options) (*Store, error) {
	if opts.Shards == 0 {
		opts.Shards = 16
	}
	if opts.Shards&(opts.Shards-1) != 0 || opts.Shards < 0 {
		return nil, fmt.Errorf("kvstore: shard count %d is not a power of two", opts.Shards)
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	policy, err := ParseSyncPolicy(string(opts.Sync))
	if err != nil {
		return nil, err
	}
	opts.Sync = policy
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	s := &Store{opts: opts, tab: newTable(opts.TTL), seed: maphash.MakeSeed()}
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(s.tab)
	}
	if opts.Dir == "" {
		return s, nil
	}
	if err := s.openDir(); err != nil {
		s.unmapTable()
		return nil, err
	}
	return s, nil
}

// openDir recovers the store from Options.Dir and opens its WAL for appends.
func (s *Store) openDir() error {
	dir := s.opts.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("kvstore: creating dir: %w", err)
	}
	// Temp files are crash debris from an interrupted Compact; both sides
	// of their renames are covered by snapshot+WAL, so they are dead weight.
	os.Remove(filepath.Join(dir, snapshotName+".tmp"))
	os.Remove(filepath.Join(dir, walName+".tmp"))
	if err := s.recover(); err != nil {
		return err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: opening WAL: %w", err)
	}
	fi, err := wal.Stat()
	if err != nil {
		wal.Close()
		return fmt.Errorf("kvstore: sizing WAL: %w", err)
	}
	s.wal = wal
	s.walSize = fi.Size()
	if s.opts.Sync == SyncInterval {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flusher()
	}
	return nil
}

// unmapTable moves every shard's memory onto the Go heap, holding all the
// shard locks at once.
func (s *Store) unmapTable() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	for _, sh := range s.shards {
		sh.moveToHeap()
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// flusher is the group-commit loop: every SyncInterval it fsyncs whatever
// appends accumulated since the last flush, amortizing one fsync over the
// whole batch.
func (s *Store) flusher() {
	defer close(s.flushDone)
	ticker := time.NewTicker(s.opts.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.walMu.Lock()
			if !s.closed && s.wal != nil {
				_ = s.syncLocked() // failed flushes retry next tick; dirty stays set
			}
			s.walMu.Unlock()
		case <-s.flushStop:
			return
		}
	}
}

// syncLocked fsyncs the WAL and records fsync latency and batch size.
// Callers hold walMu.
func (s *Store) syncLocked() error {
	if s.dirty == 0 {
		return nil
	}
	batch := s.dirty
	start := time.Now()
	err := s.wal.Sync()
	s.ops.fsyncs.Add(1)
	s.ops.fsyncNanos.Add(uint64(time.Since(start)))
	if err != nil {
		return fmt.Errorf("kvstore: syncing WAL: %w", err)
	}
	s.ops.fsyncBatchRecords.Add(uint64(batch))
	s.dirty = 0
	return nil
}

// shardFor returns key's shard and the hash bits its index words carry.
func (s *Store) shardFor(key string) (*shard, uint64) {
	h := maphash.String(s.seed, key)
	return s.shards[h&uint64(len(s.shards)-1)], h >> hashShift
}

// Put stores value under key, resetting its TTL. With SyncAlways a nil
// return means the write is on disk; with SyncInterval it becomes durable
// within one group-commit interval.
func (s *Store) Put(key string, value []byte) error {
	now := s.opts.Now().UnixNano()
	s.commitMu.RLock()
	defer s.commitMu.RUnlock()
	if err := s.appendWAL(opPut, key, value, now); err != nil {
		return err
	}
	if err := failpoint.Inject(FailMemtablePublish); err != nil {
		return err
	}
	s.ops.puts.Add(1)
	sh, hv := s.shardFor(key)
	sh.mu.Lock()
	// The value is copied into the slab; a rewrite that keeps its size
	// class stays in place — the session hot path rewrites the same key
	// every request. Readers copy out under the shard lock, so no alias
	// escapes.
	err := sh.set(key, value, hv, now)
	n := sh.reclaim(now)
	sh.mu.Unlock()
	s.ops.evictions.Add(uint64(n))
	return err
}

// Get returns the value stored under key. A successful read refreshes the
// entry's TTL ("30 minutes of inactivity" is a sliding window). The second
// result reports whether the key was present and unexpired.
func (s *Store) Get(key string) ([]byte, bool) {
	return s.GetAppend(key, nil)
}

// GetAppend is Get for pooled callers: the value is appended to dst (which
// may be a reused buffer) and the extended slice returned, so a steady-state
// reader allocates nothing once its buffer has grown to size. The copy
// happens under the shard lock — it must, since Put rewrites records in
// place.
func (s *Store) GetAppend(key string, dst []byte) ([]byte, bool) {
	now := s.opts.Now().UnixNano()
	s.ops.gets.Add(1)
	sh, hv := s.shardFor(key)
	sh.mu.Lock()
	i, ok := sh.find(key, hv)
	if !ok {
		sh.mu.Unlock()
		return dst, false
	}
	ref := sh.refAt(i)
	rec := sh.record(ref)
	if s.tab.expired(rec, now) {
		sh.removeAt(i)
		sh.mu.Unlock()
		s.ops.evictions.Add(1)
		return dst, false
	}
	binary.LittleEndian.PutUint64(rec, uint64(now))
	sh.index[i] = s.tab.word(hv, now, ref)
	dst = append(dst, recValue(rec)...)
	sh.mu.Unlock()
	s.ops.hits.Add(1)
	return dst, true
}

// Delete removes key. Deleting a missing key is not an error.
func (s *Store) Delete(key string) error {
	now := s.opts.Now().UnixNano()
	s.commitMu.RLock()
	defer s.commitMu.RUnlock()
	if err := s.appendWAL(opDelete, key, nil, now); err != nil {
		return err
	}
	if err := failpoint.Inject(FailMemtablePublish); err != nil {
		return err
	}
	s.ops.deletes.Add(1)
	sh, hv := s.shardFor(key)
	sh.mu.Lock()
	if i, ok := sh.find(key, hv); ok {
		sh.removeAt(i)
	}
	n := sh.reclaim(now)
	sh.mu.Unlock()
	s.ops.evictions.Add(uint64(n))
	return nil
}

// Len reports the number of records held, including expired ones that no
// read or expiry cursor has reached yet. It takes no lock.
func (s *Store) Len() int {
	return int(s.tab.records.Load())
}

// Bytes reports the table's slab and index bytes, which live outside the
// Go heap (on the heap where mmap is not available, and after Close). It
// takes no lock.
func (s *Store) Bytes() int64 {
	return s.tab.bytes.Load()
}

// appendWAL writes one record and, under SyncAlways, fsyncs it. Callers
// hold the shared side of commitMu.
func (s *Store) appendWAL(op byte, key string, value []byte, now int64) error {
	if s.opts.Dir == "" {
		return nil
	}
	rec := encodeRecord(op, key, value, now)
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := failpoint.Inject(FailWALAppend); err != nil {
		return err
	}
	if err := failpoint.Inject(FailWALAppendPartial); err != nil {
		s.wal.Write(rec[:len(rec)/2]) // the torn tail a mid-write crash leaves
		return err
	}
	if _, err := s.wal.Write(rec); err != nil {
		return fmt.Errorf("kvstore: appending WAL: %w", err)
	}
	s.walSize += int64(len(rec))
	s.dirty++
	s.ops.walBytes.Add(uint64(len(rec)))
	if s.opts.Sync == SyncAlways {
		if err := failpoint.Inject(FailWALSync); err != nil {
			return err
		}
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	return nil
}

// encodeRecord lays out: op(1) | ts(8) | klen(4) | vlen(4) | key | value | crc(4).
// The CRC covers everything before it.
func encodeRecord(op byte, key string, value []byte, now int64) []byte {
	n := 1 + 8 + 4 + 4 + len(key) + len(value) + 4
	rec := make([]byte, n)
	rec[0] = op
	binary.LittleEndian.PutUint64(rec[1:], uint64(now))
	binary.LittleEndian.PutUint32(rec[9:], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[13:], uint32(len(value)))
	copy(rec[17:], key)
	copy(rec[17+len(key):], value)
	crc := crc32.ChecksumIEEE(rec[:n-4])
	binary.LittleEndian.PutUint32(rec[n-4:], crc)
	return rec
}

// recover loads the snapshot (if any) and replays the WAL. A torn or corrupt
// WAL tail (the expected crash artifact) truncates replay at the first bad
// record rather than failing recovery; the same applies to a record with an
// unknown opcode (written by a future version), counted in Metrics. The
// unreplayable tail is then physically truncated so that post-recovery
// appends land at an offset future recoveries can reach.
func (s *Store) recover() error {
	if err := s.loadSnapshot(); err != nil {
		return err
	}
	path := filepath.Join(s.opts.Dir, walName)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvstore: opening WAL for recovery: %w", err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("kvstore: reading WAL: %w", err)
	}
	off := 0
replay:
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 17 {
			break // torn header
		}
		klen := int(binary.LittleEndian.Uint32(rest[9:]))
		vlen := int(binary.LittleEndian.Uint32(rest[13:]))
		total := 17 + klen + vlen + 4
		if klen < 0 || vlen < 0 || len(rest) < total {
			break // torn record
		}
		crcWant := binary.LittleEndian.Uint32(rest[total-4:])
		if crc32.ChecksumIEEE(rest[:total-4]) != crcWant {
			break // corrupt record: stop replay here
		}
		op := rest[0]
		ts := int64(binary.LittleEndian.Uint64(rest[1:]))
		key := string(rest[17 : 17+klen])
		switch op {
		case opPut:
			sh, hv := s.shardFor(key)
			if err := sh.set(key, rest[17+klen:17+klen+vlen], hv, ts); err != nil {
				return fmt.Errorf("kvstore: replaying WAL: %w", err)
			}
		case opDelete:
			sh, hv := s.shardFor(key)
			if i, ok := sh.find(key, hv); ok {
				sh.removeAt(i)
			}
		default:
			// Unknown op with a valid CRC: written by a future version.
			// Stop replay conservatively, keeping the recovered prefix.
			s.ops.unknownWALOps.Add(1)
			break replay
		}
		off += total
	}
	if off < len(data) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return fmt.Errorf("kvstore: truncating WAL tail: %w", err)
		}
	}
	return nil
}

// loadSnapshot reads the snapshot if present. A snapshot that fails
// validation (bad magic, checksum mismatch from bit rot or a torn write,
// malformed structure) is rejected and recovery falls back to WAL-only
// replay rather than refusing to start; the event is counted in Metrics.
func (s *Store) loadSnapshot() error {
	path := filepath.Join(s.opts.Dir, snapshotName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvstore: reading snapshot: %w", err)
	}
	entries, ok := snapshotEntries(data)
	if !ok {
		s.ops.snapshotFallbacks.Add(1)
		return nil
	}
	for len(entries) > 0 {
		ts := int64(binary.LittleEndian.Uint64(entries))
		klen := int(binary.LittleEndian.Uint32(entries[8:]))
		vlen := int(binary.LittleEndian.Uint32(entries[12:]))
		key := string(entries[16 : 16+klen])
		sh, hv := s.shardFor(key)
		if err := sh.set(key, entries[16+klen:16+klen+vlen], hv, ts); err != nil {
			return fmt.Errorf("kvstore: loading snapshot: %w", err)
		}
		entries = entries[16+klen+vlen:]
	}
	return nil
}

// snapshotEntries validates a snapshot image and returns its entries, each
// ts(8) | klen(4) | vlen(4) | key | value. Nothing is installed unless the
// whole file checks out, so a corrupt snapshot can never half-populate the
// memtable.
func snapshotEntries(data []byte) ([]byte, bool) {
	if len(data) < 12 {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data) != snapshotMagic {
		return nil, false
	}
	crcWant := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(data[:len(data)-4]) != crcWant {
		return nil, false
	}
	count := int(binary.LittleEndian.Uint32(data[4:]))
	body := data[:len(data)-4]
	off := 8
	for i := 0; i < count; i++ {
		if len(body)-off < 16 {
			return nil, false
		}
		klen := int(binary.LittleEndian.Uint32(body[off+8:]))
		vlen := int(binary.LittleEndian.Uint32(body[off+12:]))
		off += 16
		if len(body)-off < klen+vlen {
			return nil, false
		}
		off += klen + vlen
	}
	if off != len(body) {
		return nil, false // trailing garbage under a forged checksum
	}
	return body[8:], true
}

// Compact writes a snapshot of the live (unexpired) entries and trims the
// WAL to the records appended after the snapshot's cut. Writers are blocked
// only while the cut is recorded and while the trimmed WAL is swapped in;
// the copy takes one shard lock at a time and serialization none. Every
// error path leaves the store writable against its existing WAL.
//
// The copy is fuzzy: writes land in shards before and after it passes them.
// Replaying the WAL from the cut over it is still exact. Every record
// before the cut was published before the cut was recorded, so the copy
// holds each key at its state at the cut or later. Every record after the
// cut is a whole-value put or a delete, so replaying one the copy already
// holds rewrites the same state, and a key's last record decides it, in
// recovery as it did live. A key with no record after the cut is copied at
// its state at the cut.
func (s *Store) Compact() error {
	if s.opts.Dir == "" {
		return nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Phase 1 — the cut: under the exclusive commit lock no Put/Delete is
	// between its WAL append and its memtable publish.
	s.commitMu.Lock()
	s.walMu.Lock()
	closed, cut := s.closed, s.walSize
	s.walMu.Unlock()
	s.commitMu.Unlock()
	if closed {
		return ErrClosed
	}

	// Phase 2 — copy the live records, shard by shard, into the snapshot
	// image, then write and install it off the write path.
	tmp := filepath.Join(s.opts.Dir, snapshotName+".tmp")
	now := s.opts.Now().UnixNano()
	img := make([]byte, 8, 4096)
	count := 0
	for i, sh := range s.shards {
		if i == len(s.shards)/2 {
			if err := failpoint.Inject(FailCompactSnapshotWrite); err != nil {
				os.WriteFile(tmp, img, 0o644) // the partial temp file a crash leaves
				return err
			}
		}
		var n int
		sh.mu.Lock()
		img, n = sh.appendLive(img, now)
		sh.mu.Unlock()
		count += n
	}
	binary.LittleEndian.PutUint32(img, snapshotMagic)
	binary.LittleEndian.PutUint32(img[4:], uint32(count))
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img))
	if err := writeSnapshotFile(tmp, img); err != nil {
		return err
	}
	if err := failpoint.Inject(FailCompactSnapshotRename); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.opts.Dir, snapshotName)); err != nil {
		return fmt.Errorf("kvstore: installing snapshot: %w", err)
	}
	if err := failpoint.Inject(FailCompactWALTrim); err != nil {
		return err
	}

	// A crash anywhere before trimWAL completes leaves the full WAL next to
	// the new snapshot; replaying records the snapshot already covers is
	// idempotent (the last operation per key wins), so recovery stays exact.
	return s.trimWAL(cut)
}

// writeSnapshotFile writes a snapshot image and fsyncs it. Layout: magic(4)
// | count(4) | entries | crc(4), each entry ts(8) | klen(4) | vlen(4) | key
// | value; the CRC covers everything before it.
func writeSnapshotFile(path string, img []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("kvstore: creating snapshot: %w", err)
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return err
	}
	if err := failpoint.Inject(FailCompactSnapshotSync); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// trimWAL replaces the WAL with its suffix past cut (the records the
// just-installed snapshot does not cover). The old WAL handle is kept open
// and untouched until the swap has fully succeeded, so any failure leaves
// the store writable with its complete WAL.
func (s *Store) trimWAL(cut int64) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	walPath := filepath.Join(s.opts.Dir, walName)
	tmpPath := walPath + ".tmp"
	// The handle is opened before the rename so it tracks the inode across
	// it — no window where the store could be left without a writable WAL.
	h, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: creating trimmed WAL: %w", err)
	}
	err = func() error {
		src, err := os.Open(walPath)
		if err != nil {
			return err
		}
		defer src.Close()
		want := s.walSize - cut
		n, err := io.Copy(h, io.NewSectionReader(src, cut, want))
		if err != nil {
			return err
		}
		if n != want {
			return fmt.Errorf("WAL suffix short read: %d of %d bytes", n, want)
		}
		return h.Sync()
	}()
	if err == nil {
		err = failpoint.Inject(FailCompactWALSwapRename)
	}
	if err == nil {
		err = os.Rename(tmpPath, walPath)
	}
	if err != nil {
		h.Close()
		return fmt.Errorf("kvstore: trimming WAL: %w", err)
	}
	if err := failpoint.Inject(FailCompactWALInstall); err != nil {
		return err
	}
	old := s.wal
	s.wal = h
	s.walSize -= cut
	s.dirty = 0 // the whole suffix was just fsynced
	old.Close() // best-effort: its records are covered by snapshot + new WAL
	return nil
}

// Close stops the group-commit flusher, performs a final sync (unless the
// policy is SyncNever) and releases the WAL. It unmaps the table's slabs
// after holding every shard lock, copying them onto the Go heap first, so
// reads continue to work against the in-memory state. Further writes to a
// store with a Dir return ErrClosed.
func (s *Store) Close() error {
	s.commitMu.Lock()
	s.walMu.Lock()
	if s.closed {
		s.walMu.Unlock()
		s.commitMu.Unlock()
		return nil
	}
	s.closed = true
	s.walMu.Unlock()
	s.commitMu.Unlock()
	s.unmapTable()
	if s.flushStop != nil {
		close(s.flushStop)
		<-s.flushDone
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return nil
	}
	if s.opts.Sync != SyncNever {
		_ = s.syncLocked()
	}
	return s.wal.Close()
}
