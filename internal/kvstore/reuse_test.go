package kvstore

import (
	"bytes"
	"testing"

	"serenade/internal/failpoint"
)

// storedRef returns the slab reference of the record stored under key, for
// asserting whether a rewrite stayed in its block.
func storedRef(t *testing.T, s *Store, key string) uint32 {
	t.Helper()
	sh, hv := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.find(key, hv)
	if !ok {
		t.Fatalf("no stored value under %q", key)
	}
	return sh.refAt(i)
}

func TestGetAppendReusesDst(t *testing.T) {
	s := openMem(t, 0, nil)
	if err := s.Put("k", []byte("hello")); err != nil {
		t.Fatal(err)
	}

	// A dst with enough capacity is extended in place: same backing array,
	// no allocation on the steady-state read path.
	dst := make([]byte, 0, 32)
	got, ok := s.GetAppend("k", dst)
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("GetAppend = %q,%v want hello,true", got, ok)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("GetAppend reallocated although dst had capacity")
	}

	// Existing content in dst is preserved — GetAppend appends, like the
	// standard library's append-style APIs.
	prefixed, ok := s.GetAppend("k", []byte("pre-"))
	if !ok || !bytes.Equal(prefixed, []byte("pre-hello")) {
		t.Fatalf("GetAppend with prefix = %q,%v", prefixed, ok)
	}

	// A miss returns dst unchanged and ok=false.
	miss, ok := s.GetAppend("absent", dst)
	if ok || len(miss) != 0 {
		t.Fatalf("GetAppend miss = %q,%v want empty,false", miss, ok)
	}
}

// TestGetAppendCopies pins the aliasing contract: the returned bytes are a
// copy, never a window into a slab — required because Put rewrites a record
// in place.
func TestGetAppendCopies(t *testing.T) {
	s := openMem(t, 0, nil)
	s.Put("k", []byte("abc"))
	v, _ := s.GetAppend("k", nil)
	v[0] = 'X'
	if again, _ := s.Get("k"); !bytes.Equal(again, []byte("abc")) {
		t.Error("mutating a GetAppend result corrupted the store")
	}
	s.Put("k", []byte("zzz"))
	if !bytes.Equal(v, []byte("Xbc")) {
		t.Error("a Put rewrote bytes previously returned by GetAppend")
	}
}

func TestPutReusesValueBuffer(t *testing.T) {
	s := openMem(t, 0, nil)
	if err := s.Put("k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	before := storedRef(t, s, "k")

	// Rewriting with a value whose record keeps its size class stays in
	// the block — the session hot path rewrites the same key every request
	// at near-constant size.
	if err := s.Put("k", []byte("abcde")); err != nil {
		t.Fatal(err)
	}
	if after := storedRef(t, s, "k"); after != before {
		t.Error("Put moved a record that fit its block")
	}
	if v, _ := s.Get("k"); !bytes.Equal(v, []byte("abcde")) {
		t.Fatalf("Get after in-place rewrite = %q", v)
	}

	// A larger value cannot fit and must get a fresh block.
	grown := bytes.Repeat([]byte("x"), 64)
	if err := s.Put("k", grown); err != nil {
		t.Fatal(err)
	}
	if after := storedRef(t, s, "k"); after == before {
		t.Error("Put kept a block smaller than the new record")
	}
	if v, _ := s.Get("k"); !bytes.Equal(v, grown) {
		t.Fatalf("Get after growing rewrite = %q", v)
	}
}

// TestPutInPlaceDuringCompact: Compact copies records out under each shard
// lock, so nothing aliases a slab while the snapshot is written. A rewrite
// held up by nothing stays in its block mid-Compact, and recovery sees the
// rewritten value.
func TestPutInPlaceDuringCompact(t *testing.T) {
	defer failpoint.DisableAll()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	before := storedRef(t, s, "k")

	held, release := holdCompact(t)
	compactDone := make(chan error, 1)
	go func() { compactDone <- s.Compact() }()
	<-held
	if err := s.Put("k", []byte("abcde")); err != nil {
		t.Fatal(err)
	}
	if after := storedRef(t, s, "k"); after != before {
		t.Error("Put moved a record that fit its block while Compact ran")
	}
	close(release)
	if err := <-compactDone; err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, _ := s2.Get("k"); !bytes.Equal(v, []byte("abcde")) {
		t.Fatalf("recovered %q, want the rewrite made during Compact", v)
	}
}
