package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"serenade/internal/failpoint"
)

// killHit picks the failpoint hit on which the simulated kill fires. The
// write-path points fire once per Put/Delete, so killing on a later hit
// lets earlier operations be acknowledged first (including past the
// mid-workload Compact); the compaction points fire once, inside Compact.
func killHit(point string) int {
	switch point {
	case FailWALAppend, FailWALAppendPartial, FailWALSync, FailMemtablePublish:
		return 14
	}
	return 1
}

// TestKillAtEveryPoint is the crash harness for the durability contract:
// for each failpoint in the commit/compact sequence it runs a workload with
// -wal-sync=always up to a kill at that point, reopens the store, and
// checks the recovered state against the acknowledged-write oracle. Every
// acknowledged Put/Delete must be recovered exactly; the single in-flight
// operation at the kill may be either applied or absent (it was never
// acknowledged); nothing else may appear.
func TestKillAtEveryPoint(t *testing.T) {
	for _, point := range CrashPoints {
		t.Run(point, func(t *testing.T) {
			defer failpoint.DisableAll()
			dir := t.TempDir()
			s, err := Open(Options{Dir: dir, Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close() // fd hygiene only; the "crash" is the abandon below

			failpoint.Enable(point, failpoint.After(killHit(point), failpoint.ErrKilled))

			oracle := map[string][]byte{} // acked state; deleted keys removed
			touched := map[string]bool{}  // every key any op ever targeted
			var inflightKey string
			var inflightVal []byte // nil = the in-flight op was a delete
			var inflightDel bool
			killed := false

			for i := 0; i < 20 && !killed; i++ {
				if i == 10 {
					if err := s.Compact(); err != nil {
						if !errors.Is(err, failpoint.ErrKilled) {
							t.Fatalf("compact: %v", err)
						}
						killed = true
						break
					}
				}
				key := fmt.Sprintf("k%d", i%6)
				touched[key] = true
				if i%5 == 4 {
					err = s.Delete(key)
					if errors.Is(err, failpoint.ErrKilled) {
						inflightKey, inflightDel = key, true
						killed = true
						break
					}
					if err != nil {
						t.Fatalf("delete %s: %v", key, err)
					}
					delete(oracle, key)
					continue
				}
				val := []byte(fmt.Sprintf("v%02d", i))
				err = s.Put(key, val)
				if errors.Is(err, failpoint.ErrKilled) {
					inflightKey, inflightVal = key, val
					killed = true
					break
				}
				if err != nil {
					t.Fatalf("put %s: %v", key, err)
				}
				oracle[key] = val
			}
			if !killed {
				t.Fatalf("failpoint %s never fired", point)
			}
			failpoint.DisableAll()
			// Crash: abandon s without Close and recover from disk.

			s2, err := Open(Options{Dir: dir, Sync: SyncAlways})
			if err != nil {
				t.Fatalf("recovery after kill at %s: %v", point, err)
			}
			defer s2.Close()

			for key := range touched {
				got, ok := s2.Get(key)
				want, acked := oracle[key]
				if key == inflightKey {
					// Unacknowledged in-flight op: pre-kill acked state or
					// the in-flight effect are both legal, nothing else.
					ackedOK := ok == acked && (!ok || bytes.Equal(got, want))
					var inflightOK bool
					if inflightDel {
						inflightOK = !ok
					} else {
						inflightOK = ok && bytes.Equal(got, inflightVal)
					}
					if !ackedOK && !inflightOK {
						t.Errorf("key %s = %q,%v; want acked %q,%v or in-flight effect", key, got, ok, want, acked)
					}
					continue
				}
				if acked && (!ok || !bytes.Equal(got, want)) {
					t.Errorf("acknowledged write lost: %s = %q,%v, want %q", key, got, ok, want)
				}
				if !acked && ok {
					t.Errorf("phantom key %s = %q after recovery", key, got)
				}
			}
			if s2.Len() > len(touched) {
				t.Errorf("recovered %d entries from a %d-key workload", s2.Len(), len(touched))
			}
		})
	}
}

// TestCompactLostUpdateReproducer pins the Compact lost-update window shut:
// a Put parked between its WAL append and memtable publish must exclude
// Compact entirely. On the pre-fix code, Compact ran inside that window,
// snapshotted a memtable without the entry and truncated its WAL record —
// the acknowledged write vanished on the next recovery.
func TestCompactLostUpdateReproducer(t *testing.T) {
	defer failpoint.DisableAll()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}

	inWindow := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	failpoint.Enable(FailMemtablePublish, func() error {
		once.Do(func() {
			close(inWindow)
			<-release
		})
		return nil
	})

	putDone := make(chan error, 1)
	go func() { putDone <- s.Put("clicked", []byte("item-42")) }()
	<-inWindow // the Put now sits in the append→publish window

	compactDone := make(chan error, 1)
	go func() { compactDone <- s.Compact() }()
	select {
	case err := <-compactDone:
		t.Fatalf("Compact completed inside the commit window (err=%v): lost-update race is open", err)
	case <-time.After(100 * time.Millisecond):
		// Compact is blocked on the commit lock, as required.
	}

	close(release)
	if err := <-putDone; err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := <-compactDone; err != nil {
		t.Fatalf("compact: %v", err)
	}
	s.Close() // crash-equivalent here: the snapshot+WAL already cover the put

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, _ := s2.Get("clicked"); !bytes.Equal(v, []byte("item-42")) {
		t.Fatalf("acknowledged write lost across compaction: %q", v)
	}
}

// holdCompact arms FailCompactSnapshotWrite, which Compact passes halfway
// through its shard-by-shard copy, to park Compact there. held is closed
// once Compact is parked; closing release lets it continue.
func holdCompact(t *testing.T) (held, release chan struct{}) {
	t.Helper()
	held, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	failpoint.Enable(FailCompactSnapshotWrite, func() error {
		once.Do(func() {
			close(held)
			<-release
		})
		return nil
	})
	return held, release
}

// TestCompactDoesNotStallWrites: Compact holds the exclusive commit lock
// only to record its WAL cut, so writes to every shard — copied already or
// not yet — return while Compact is parked mid-copy, and recovery from the
// snapshot plus the WAL after the cut finds each of them.
func TestCompactDoesNotStallWrites(t *testing.T) {
	defer failpoint.DisableAll()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("before%d", i)
		if err := s.Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		want[key] = key
	}

	held, release := holdCompact(t)
	compactDone := make(chan error, 1)
	go func() { compactDone <- s.Compact() }()
	<-held

	writesDone := make(chan error, 1)
	go func() {
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("during%d", i)
			if err := s.Put(key, []byte(key)); err != nil {
				writesDone <- err
				return
			}
			if err := s.Put(fmt.Sprintf("before%d", i), []byte(key)); err != nil {
				writesDone <- err
				return
			}
		}
		writesDone <- s.Delete("before0")
	}()
	select {
	case err := <-writesDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writes stalled behind a Compact parked mid-copy")
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("during%d", i)
		want[key] = key
		want[fmt.Sprintf("before%d", i)] = key
	}
	delete(want, "before0")
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
	for k, v := range want {
		if got, ok := s2.Get(k); !ok || string(got) != v {
			t.Errorf("%s = %q,%v after recovery, want %q", k, got, ok, v)
		}
	}
	if _, ok := s2.Get("before0"); ok {
		t.Error("key deleted during Compact resurrected")
	}
	if s2.Len() != len(want) {
		t.Errorf("recovered %d records, want %d", s2.Len(), len(want))
	}
}

// TestCompactFailureKeepsStoreWritable: every Compact error path must leave
// the old WAL handle open and the store fully writable (the pre-fix code
// closed the WAL before the swap, so a rename or reopen failure bricked all
// subsequent writes).
func TestCompactFailureKeepsStoreWritable(t *testing.T) {
	errInjected := errors.New("injected compact failure")
	for _, point := range []string{
		FailCompactSnapshotWrite,
		FailCompactSnapshotSync,
		FailCompactSnapshotRename,
		FailCompactWALSwapRename,
	} {
		t.Run(point, func(t *testing.T) {
			defer failpoint.DisableAll()
			dir := t.TempDir()
			s, err := Open(Options{Dir: dir, Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			s.Put("pre", []byte("1"))

			failpoint.Enable(point, failpoint.Fail(errInjected))
			if err := s.Compact(); !errors.Is(err, errInjected) {
				t.Fatalf("Compact = %v, want injected failure", err)
			}
			failpoint.DisableAll()

			// The store must still accept and persist writes.
			if err := s.Put("post", []byte("2")); err != nil {
				t.Fatalf("write after failed compact: %v", err)
			}
			// And a later Compact must succeed cleanly.
			if err := s.Compact(); err != nil {
				t.Fatalf("compact after failed compact: %v", err)
			}
			s.Close()

			s2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			for k, want := range map[string]string{"pre": "1", "post": "2"} {
				if v, _ := s2.Get(k); !bytes.Equal(v, []byte(want)) {
					t.Errorf("%s = %q, want %q", k, v, want)
				}
			}
		})
	}
}

// TestConcurrentWritesCompactFlusher exercises the full concurrency
// surface — Put/Get/Delete under the shared commit lock, repeated Compacts
// and the group-commit flusher — and then verifies every acknowledged final
// value after a clean close and recovery. Run under -race via `make race`.
func TestConcurrentWritesCompactFlusher(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncInterval, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const opsPerWriter = 300
	finals := make([]map[string][]byte, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			final := map[string][]byte{}
			for i := 0; i < opsPerWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%13)
				if i%7 == 6 {
					if err := s.Delete(key); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					delete(final, key)
					continue
				}
				val := []byte(fmt.Sprintf("w%d-v%d", w, i))
				if err := s.Put(key, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				final[key] = val
				if i%11 == 0 {
					s.Get(key)
				}
			}
			finals[w] = final
		}(w)
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.Compact(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for w, final := range finals {
		if final == nil {
			continue // writer goroutine already reported its failure
		}
		for k, want := range final {
			if got, ok := s2.Get(k); !ok || !bytes.Equal(got, want) {
				t.Errorf("writer %d: %s = %q,%v, want %q", w, k, got, ok, want)
			}
		}
		for i := 0; i < 13; i++ {
			k := fmt.Sprintf("w%d-k%d", w, i)
			if _, acked := final[k]; acked {
				continue
			}
			if _, ok := s2.Get(k); ok {
				t.Errorf("deleted key %s resurrected", k)
			}
		}
	}
}
