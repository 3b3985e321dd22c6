package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// fakeClock is a controllable clock for TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_600_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func openMem(t *testing.T, ttl time.Duration, clock *fakeClock) *Store {
	t.Helper()
	opts := Options{TTL: ttl}
	if clock != nil {
		opts.Now = clock.Now
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := openMem(t, 0, nil)
	if _, ok := s.Get("missing"); ok {
		t.Error("Get of missing key reported ok")
	}
	if err := s.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("k")
	if !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("Get = %q,%v want v1,true", v, ok)
	}
	if err := s.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("k"); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("Get after overwrite = %q, want v2", v)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Error("Get after delete reported ok")
	}
	if err := s.Delete("k"); err != nil {
		t.Errorf("double delete errored: %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := openMem(t, 0, nil)
	s.Put("k", []byte("abc"))
	v, _ := s.Get("k")
	v[0] = 'X'
	again, _ := s.Get("k")
	if !bytes.Equal(again, []byte("abc")) {
		t.Error("mutating a returned value corrupted the store")
	}
}

func TestPutCopiesValue(t *testing.T) {
	s := openMem(t, 0, nil)
	buf := []byte("abc")
	s.Put("k", buf)
	buf[0] = 'X'
	v, _ := s.Get("k")
	if !bytes.Equal(v, []byte("abc")) {
		t.Error("mutating the caller's buffer corrupted the store")
	}
}

func TestTTLExpiry(t *testing.T) {
	clock := newFakeClock()
	s := openMem(t, 30*time.Minute, clock)
	s.Put("session", []byte("state"))
	clock.Advance(29 * time.Minute)
	if _, ok := s.Get("session"); !ok {
		t.Fatal("entry expired before TTL")
	}
	// The Get above refreshed the sliding window.
	clock.Advance(29 * time.Minute)
	if _, ok := s.Get("session"); !ok {
		t.Fatal("sliding TTL was not refreshed by Get")
	}
	clock.Advance(31 * time.Minute)
	if _, ok := s.Get("session"); ok {
		t.Fatal("entry survived past TTL")
	}
}

func TestZeroTTLNeverExpires(t *testing.T) {
	clock := newFakeClock()
	s := openMem(t, 0, clock)
	s.Put("k", []byte("v"))
	clock.Advance(1000 * time.Hour)
	for i := 0; i < 1000; i++ { // laps of every shard's expiry cursor
		s.Put(fmt.Sprintf("other%d", i), []byte("x"))
	}
	if _, ok := s.Get("k"); !ok {
		t.Error("entry with zero TTL expired")
	}
	if m := s.Metrics(); m.Evictions != 0 {
		t.Errorf("Evictions = %d with zero TTL", m.Evictions)
	}
}

func TestOpenBadShards(t *testing.T) {
	if _, err := Open(Options{Shards: 3}); err == nil {
		t.Error("expected error for non-power-of-two shards")
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete("k0")
	s.Put("k1", []byte("updated"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("k0"); ok {
		t.Error("deleted key resurrected by recovery")
	}
	if v, _ := s2.Get("k1"); !bytes.Equal(v, []byte("updated")) {
		t.Errorf("k1 = %q, want updated", v)
	}
	if v, _ := s2.Get("k50"); !bytes.Equal(v, []byte("v50")) {
		t.Errorf("k50 = %q, want v50", v)
	}
	if s2.Len() != 99 {
		t.Errorf("Len = %d after recovery, want 99", s2.Len())
	}
}

func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Close()

	// Simulate a crash mid-append: chop bytes off the WAL tail.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery must tolerate torn tail: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Get("a"); !ok {
		t.Error("intact record lost")
	}
	if _, ok := s2.Get("b"); ok {
		t.Error("torn record replayed")
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Options{Dir: dir})
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Close()

	walPath := filepath.Join(dir, walName)
	data, _ := os.ReadFile(walPath)
	// Flip a byte inside the first record's value region.
	data[18] ^= 0xFF
	os.WriteFile(walPath, data, 0o644)

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery must tolerate corruption: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 0 {
		t.Errorf("replay continued past corrupt record: Len=%d", s2.Len())
	}
}

func TestCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	s, err := Open(Options{Dir: dir, TTL: 30 * time.Minute, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("stale", []byte("old"))
	clock.Advance(time.Hour)
	s.Put("fresh", []byte("new"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// WAL must now be empty.
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Errorf("WAL not truncated after compaction: %v bytes", fi.Size())
	}
	s.Put("after", []byte("compaction"))
	s.Close()

	s2, err := Open(Options{Dir: dir, TTL: 30 * time.Minute, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("stale"); ok {
		t.Error("expired entry survived compaction")
	}
	if v, _ := s2.Get("fresh"); !bytes.Equal(v, []byte("new")) {
		t.Errorf("fresh = %q, want new", v)
	}
	if v, _ := s2.Get("after"); !bytes.Equal(v, []byte("compaction")) {
		t.Errorf("after = %q, want compaction", v)
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, snapshotName), []byte("garbagexxxxxconclusively-not-a-snapshot"), 0o644)
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("corrupt snapshot must fall back to WAL-only recovery, got %v", err)
	}
	defer s.Close()
	if got := s.Metrics().SnapshotFallbacks; got != 1 {
		t.Errorf("SnapshotFallbacks = %d, want 1", got)
	}
}

// TestSnapshotCorruptionFallsBack: any truncation or bit flip in the
// snapshot is rejected by the whole-file CRC and recovery proceeds from the
// WAL alone — the compacted prefix is lost, but the store starts and every
// post-compaction write survives.
func TestSnapshotCorruptionFallsBack(t *testing.T) {
	build := func(t *testing.T) (string, []byte) {
		t.Helper()
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		s.Put("compacted", bytes.Repeat([]byte("v"), 100))
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		s.Put("after", []byte("wal-only"))
		s.Close()
		data, err := os.ReadFile(filepath.Join(dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		return dir, data
	}

	check := func(t *testing.T, dir string, corrupted []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, snapshotName), corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("corrupt snapshot failed Open: %v", err)
		}
		defer s.Close()
		if got := s.Metrics().SnapshotFallbacks; got != 1 {
			t.Errorf("SnapshotFallbacks = %d, want 1", got)
		}
		if _, ok := s.Get("compacted"); ok {
			t.Error("entry from the rejected snapshot survived")
		}
		if v, _ := s.Get("after"); !bytes.Equal(v, []byte("wal-only")) {
			t.Errorf("WAL entry lost in fallback: %q", v)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		dir, data := build(t)
		check(t, dir, data[:len(data)-10])
	})
	t.Run("bitflip-body", func(t *testing.T) {
		dir, data := build(t)
		data[len(data)/2] ^= 0x40
		check(t, dir, data)
	})
	t.Run("bitflip-crc", func(t *testing.T) {
		dir, data := build(t)
		data[len(data)-1] ^= 0x01
		check(t, dir, data)
	})
}

func TestSnapshotIntactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Options{Dir: dir})
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Metrics().SnapshotFallbacks; got != 0 {
		t.Errorf("valid snapshot counted as fallback: %d", got)
	}
	if s2.Len() != 2 {
		t.Errorf("Len = %d after snapshot recovery, want 2", s2.Len())
	}
}

// TestWALUnknownOpKeepsPrefix: a valid-CRC record with an unrecognized
// opcode stops replay at that offset, keeps the recovered prefix, counts the
// event, and keeps the store writable.
func TestWALUnknownOpKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Options{Dir: dir})
	s.Put("before", []byte("kept"))
	s.Close()

	// Append a future-version record (op 99) with a valid CRC, then a
	// normal record after it that replay must not reach.
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(encodeRecord(99, "future", []byte("op"), 1))
	f.Write(encodeRecord(opPut, "unreachable", []byte("x"), 2))
	f.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("unknown WAL op must not fail Open: %v", err)
	}
	defer s2.Close()
	if v, _ := s2.Get("before"); !bytes.Equal(v, []byte("kept")) {
		t.Errorf("prefix lost: before = %q", v)
	}
	if _, ok := s2.Get("unreachable"); ok {
		t.Error("replay continued past the unknown op")
	}
	if got := s2.Metrics().UnknownWALOps; got != 1 {
		t.Errorf("UnknownWALOps = %d, want 1", got)
	}
	// The unreplayable tail was truncated, so new writes land at a
	// reachable offset for the next recovery.
	if err := s2.Put("new", []byte("write")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if v, _ := s3.Get("new"); !bytes.Equal(v, []byte("write")) {
		t.Errorf("post-truncation write unreachable: %q", v)
	}
}

func TestSyncAlwaysFsyncsEveryWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.Fsyncs != 5 {
		t.Errorf("Fsyncs = %d, want 5", m.Fsyncs)
	}
	if m.FsyncBatchRecords != 5 {
		t.Errorf("FsyncBatchRecords = %d, want 5", m.FsyncBatchRecords)
	}
}

func TestSyncIntervalGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncInterval, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if m := s.Metrics(); m.FsyncBatchRecords == 20 {
			if m.Fsyncs == 0 {
				t.Fatal("batch records counted without an fsync")
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("flusher never covered all appends: %+v", s.Metrics())
}

func TestSyncPolicyValidation(t *testing.T) {
	if _, err := Open(Options{Sync: "sometimes"}); err == nil {
		t.Error("bogus sync policy accepted")
	}
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever, ""} {
		s, err := Open(Options{Sync: p})
		if err != nil {
			t.Errorf("policy %q rejected: %v", p, err)
			continue
		}
		s.Close()
	}
}

func TestClosedStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Options{Dir: dir})
	s.Put("k", []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close errored: %v", err)
	}
	if err := s.Put("k2", []byte("v")); err != ErrClosed {
		t.Errorf("Put after close = %v, want ErrClosed", err)
	}
	if err := s.Compact(); err != ErrClosed {
		t.Errorf("Compact after close = %v, want ErrClosed", err)
	}
	// reads still work
	if _, ok := s.Get("k"); !ok {
		t.Error("read after close failed")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := openMem(t, 0, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d-%d", w, i%50)
				s.Put(key, []byte{byte(i)})
				s.Get(key)
				if i%10 == 0 {
					s.Delete(key)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPropertyModelEquivalence compares the store against a plain map model
// under a random operation sequence: puts, deletes, reads and clock steps
// past the TTL, over keys of 0–64 bytes and values of 0–250 bytes, in one
// shard so that probe runs, growth, in-place rewrites and the expiry cursor
// all meet.
func TestPropertyModelEquivalence(t *testing.T) {
	const ttl = time.Minute
	type op struct {
		Kind  uint8
		Key   uint8
		Len   uint8
		Value uint16
	}
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = strings.Repeat(string(rune('a'+i%26)), i*62/len(keys)) + fmt.Sprint(i)
	}
	keys[0] = ""
	type entry struct {
		value []byte
		last  time.Time
	}
	prop := func(ops []op) bool {
		clock := newFakeClock()
		s, err := Open(Options{Shards: 1, TTL: ttl, Now: clock.Now})
		if err != nil {
			return false
		}
		defer s.Close()
		model := map[string]entry{}
		get := func(key string) bool {
			got, ok := s.Get(key)
			e, wantOK := model[key]
			if wantOK && clock.Now().Sub(e.last) > ttl {
				delete(model, key)
				wantOK = false
			}
			if wantOK {
				model[key] = entry{e.value, clock.Now()}
			}
			return ok == wantOK && (!ok || bytes.Equal(got, e.value))
		}
		for _, o := range ops {
			key := keys[int(o.Key)%len(keys)]
			switch o.Kind % 5 {
			case 0, 1:
				v := bytes.Repeat([]byte{byte(o.Value)}, int(o.Len)%251)
				if s.Put(key, v) != nil {
					return false
				}
				model[key] = entry{v, clock.Now()}
			case 2:
				if s.Delete(key) != nil {
					return false
				}
				delete(model, key)
			case 3:
				if !get(key) {
					return false
				}
			case 4:
				clock.Advance(time.Duration(o.Value) * time.Millisecond) // up to ~65 s
			}
		}
		for _, key := range keys {
			if !get(key) {
				return false
			}
		}
		return s.Len() == len(model)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWALRecoveryEquivalence: after any sequence of puts/deletes,
// reopening from the WAL reproduces the same state.
func TestPropertyWALRecoveryEquivalence(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Value uint16
	}
	prop := func(ops []op) bool {
		dir, err := os.MkdirTemp("", "kvprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		s, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		model := map[string][]byte{}
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%8)
			if o.Kind%2 == 0 {
				v := []byte(fmt.Sprintf("v%d", o.Value))
				s.Put(key, v)
				model[key] = v
			} else {
				s.Delete(key)
				delete(model, key)
			}
		}
		s.Close()
		s2, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		defer s2.Close()
		if s2.Len() != len(model) {
			return false
		}
		for k, want := range model {
			got, ok := s2.Get(k)
			if !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// benchKeys are the session keys the §4.2 microbenchmarks cycle through,
// built up front so that the loops measure the store alone.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%d", i)
	}
	return keys
}

// BenchmarkGet and BenchmarkPut reproduce the §4.2 microbenchmark shape:
// reads and writes must complete in microseconds.
func BenchmarkGet(b *testing.B) {
	s, _ := Open(Options{TTL: 30 * time.Minute})
	defer s.Close()
	keys := benchKeys(10000)
	for _, k := range keys {
		s.Put(k, bytes.Repeat([]byte("x"), 128))
	}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = s.GetAppend(keys[i%len(keys)], buf[:0])
	}
}

func BenchmarkPut(b *testing.B) {
	s, _ := Open(Options{TTL: 30 * time.Minute})
	defer s.Close()
	keys := benchKeys(10000)
	val := bytes.Repeat([]byte("x"), 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[i%len(keys)], val)
	}
}
