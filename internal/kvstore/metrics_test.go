package kvstore

import (
	"testing"
	"time"
)

func TestMetricsCounters(t *testing.T) {
	clock := newFakeClock()
	// One shard, so a write's expiry cursor laps the whole 16-slot index.
	s, err := Open(Options{Shards: 1, TTL: 30 * time.Minute, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a missing")
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("phantom key")
	}
	if err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}

	m := s.Metrics()
	if m.Puts != 2 || m.Gets != 2 || m.Hits != 1 || m.Deletes != 1 || m.Evictions != 0 {
		t.Fatalf("counters after ops: %+v", m)
	}

	// Lazy eviction on an expired read counts, as does a write's cursor.
	clock.Advance(31 * time.Minute)
	if _, ok := s.Get("a"); ok {
		t.Fatal("a should have expired")
	}
	if err := s.Put("c", []byte("3")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(31 * time.Minute)
	if err := s.Delete("nope"); err != nil {
		t.Fatal(err)
	}
	m = s.Metrics()
	if m.Evictions != 2 || s.Len() != 0 {
		t.Fatalf("evictions = %d, Len = %d, want 2 (one lazy, one by the cursor) and 0: %+v", m.Evictions, s.Len(), m)
	}
}

func TestMetricsWALBytes(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	s, err := Open(Options{Dir: dir, TTL: time.Hour, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if m := s.Metrics(); m.WALBytes != 0 {
		t.Fatalf("fresh store WALBytes = %d", m.WALBytes)
	}
	if err := s.Put("key", []byte("value")); err != nil {
		t.Fatal(err)
	}
	// op(1)+ts(8)+klen(4)+vlen(4)+key(3)+value(5)+crc(4) = 29 bytes.
	if m := s.Metrics(); m.WALBytes != 29 {
		t.Fatalf("WALBytes = %d, want 29", m.WALBytes)
	}
}
