package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// TestExpiryAmortisedOverWrites: a steady stream of fresh keys at a fixed
// TTL, with no sweep anywhere, holds the table near rate × TTL records. The
// expiry cursors free the rest, every drop is counted as an eviction, and no
// record younger than the TTL is ever dropped.
func TestExpiryAmortisedOverWrites(t *testing.T) {
	const (
		ttl     = time.Minute
		perSec  = 100
		seconds = 600
		live    = perSec * int(ttl/time.Second)
	)
	clock := newFakeClock()
	s := openMem(t, ttl, clock)
	key := func(i int) string { return "session-" + strconv.Itoa(i) }
	peak := 0
	for i := 0; i < perSec*seconds; i++ {
		if err := s.Put(key(i), []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second / perSec)
		if i >= live {
			peak = max(peak, s.Len())
		}
	}
	if peak < live || peak > live*3/2 {
		t.Errorf("records held peaked at %d after the first TTL; want rate × TTL = %d, plus at most half again", peak, live)
	}
	m := s.Metrics()
	if m.Evictions != m.Puts-uint64(s.Len()) {
		t.Errorf("evictions = %d, want puts − held = %d − %d", m.Evictions, m.Puts, s.Len())
	}
	// Keys written within the last TTL are all still held.
	for i := perSec*seconds - live + 1; i < perSec*seconds; i++ {
		if _, ok := s.Get(key(i)); !ok {
			t.Fatalf("live key %s dropped", key(i))
		}
	}
}

// TestZeroAllocs: a new-key Put and a GetAppend+Put rewrite allocate nothing,
// at 10k, 100k and 400k records. Slab and index growth map memory outside
// the heap, so even the operations that grow the table stay well under one
// allocation on average.
func TestZeroAllocs(t *testing.T) {
	for _, n := range []int{10_000, 100_000, 400_000} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			const runs = 1000
			s := openMem(t, 30*time.Minute, nil)
			keys := make([]string, n+runs+1)
			for i := range keys {
				keys[i] = fmt.Sprintf("m1-%d", i)
			}
			value := []byte{1, 2, 3}
			for _, k := range keys[:n] {
				if err := s.Put(k, value); err != nil {
					t.Fatal(err)
				}
			}
			next := n
			if a := testing.AllocsPerRun(runs, func() {
				s.Put(keys[next], value)
				next++
			}); a != 0 {
				t.Errorf("new-key Put: %v allocs, want 0", a)
			}
			buf := make([]byte, 0, 64)
			i := 0
			if a := testing.AllocsPerRun(runs, func() {
				k := keys[i*7919%n]
				buf, _ = s.GetAppend(k, buf[:0])
				buf = append(buf, byte(i))
				if len(buf) > 40 {
					buf = buf[len(buf)-40:]
				}
				s.Put(k, buf)
				i++
			}); a != 0 {
				t.Errorf("GetAppend+Put rewrite: %v allocs, want 0", a)
			}
		})
	}
}

// TestSessionsOffHeap: 200k sessions live in the slabs, not on the Go heap.
func TestSessionsOffHeap(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("slabs come from the heap where mmap is not used")
	}
	s := openMem(t, 30*time.Minute, nil)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	key := make([]byte, 0, 32)
	for i := 0; i < 200_000; i++ {
		key = strconv.AppendInt(append(key[:0], "m1-"...), int64(i), 10)
		if err := s.Put(string(key), []byte{byte(i), byte(i >> 8), 3}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if grew := int64(ms.HeapAlloc) - int64(before); grew >= 2<<20 {
		t.Errorf("HeapAlloc grew %d bytes holding 200k sessions, want < 2 MB", grew)
	}
	if s.Len() != 200_000 || s.Bytes() < 200_000*32 {
		t.Errorf("Len = %d, Bytes = %d; want 200000 records of at least 32 bytes", s.Len(), s.Bytes())
	}
	runtime.KeepAlive(s)
}

// TestOversizeRecords: a record past the largest size class gets a slab of
// its own, rewrites in it while it fits, and returns it when it moves or
// goes.
func TestOversizeRecords(t *testing.T) {
	s, err := Open(Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("small", []byte("x"))
	base := s.Bytes()

	big := bytes.Repeat([]byte("b"), 100_000)
	s.Put("big", big)
	if got := s.Bytes() - base; got != recHeader+3+100_000 {
		t.Errorf("oversize record added %d bytes, want its own slab of %d", got, recHeader+3+100_000)
	}
	ref := storedRef(t, s, "big")
	s.Put("big", big[:90_000])
	if storedRef(t, s, "big") != ref {
		t.Error("an oversize rewrite that fits its slab moved")
	}
	if v, _ := s.Get("big"); !bytes.Equal(v, big[:90_000]) {
		t.Fatal("oversize rewrite lost")
	}
	s.Put("big", []byte("now small"))
	if v, _ := s.Get("big"); string(v) != "now small" || s.Bytes() != base {
		t.Errorf("after shrinking: %q, Bytes = %d; want the oversize slab gone (%d)", v, s.Bytes(), base)
	}
	huge := bytes.Repeat([]byte("h"), 2*slabSize)
	s.Put("huge", huge)
	if v, _ := s.Get("huge"); !bytes.Equal(v, huge) {
		t.Fatal("record larger than a slab lost")
	}
	s.Delete("huge")
	if s.Bytes() != base {
		t.Errorf("Bytes = %d after deleting the oversize record, want %d", s.Bytes(), base)
	}
	if v, _ := s.Get("small"); string(v) != "x" {
		t.Errorf("small = %q", v)
	}
}

// TestRecoverParentFormat: testdata/parent-store holds a snapshot and a WAL
// written by the map-based memtable this table replaced (the on-disk
// formats did not change); they recover under the table.
func TestRecoverParentFormat(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapshotName, walName} {
		data, err := os.ReadFile(filepath.Join("testdata", "parent-store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[string]string{
		"snap1": "rewritten",
		"":      "empty key",
		"big":   string(make([]byte, 5000)),
	}
	for i := 3; i < 40; i++ {
		want[fmt.Sprintf("snap%d", i)] = fmt.Sprintf("v%d", i)
	}
	for i := 0; i < 10; i++ {
		want[fmt.Sprintf("wal%d", i)] = fmt.Sprintf("w%d", i)
	}
	if m := s.Metrics(); m.SnapshotFallbacks != 0 || m.UnknownWALOps != 0 {
		t.Fatalf("recovery rejected part of the parent's files: %+v", m)
	}
	for k, v := range want {
		if got, ok := s.Get(k); !ok || string(got) != v {
			t.Errorf("%q = %.20q,%v, want %.20q", k, got, ok, v)
		}
	}
	for _, k := range []string{"snap0", "snap2"} {
		if _, ok := s.Get(k); ok {
			t.Errorf("deleted key %s recovered", k)
		}
	}
	if s.Len() != len(want) {
		t.Errorf("Len = %d, want %d", s.Len(), len(want))
	}
}
