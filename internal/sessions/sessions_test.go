package sessions

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func click(s SessionID, i ItemID, t int64) Click { return Click{Session: s, Item: i, Time: t} }

func TestGroupOrdersClicksWithinSession(t *testing.T) {
	ds := Group("t", []Click{
		click(2, 10, 300),
		click(1, 5, 100),
		click(2, 11, 100),
		click(1, 6, 200),
		click(2, 12, 200),
	})
	if len(ds.Sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(ds.Sessions))
	}
	s1, s2 := ds.Sessions[0], ds.Sessions[1]
	if s1.ID != 1 || s2.ID != 2 {
		t.Fatalf("session ids = %d,%d want 1,2", s1.ID, s2.ID)
	}
	if !reflect.DeepEqual(s2.Items, []ItemID{11, 12, 10}) {
		t.Errorf("session 2 items = %v, want [11 12 10]", s2.Items)
	}
	if s2.Time() != 300 {
		t.Errorf("session 2 time = %d, want 300", s2.Time())
	}
	if ds.NumItems != 13 {
		t.Errorf("NumItems = %d, want 13", ds.NumItems)
	}
}

func TestGroupStableForEqualTimestamps(t *testing.T) {
	ds := Group("t", []Click{
		click(1, 7, 100),
		click(1, 8, 100),
		click(1, 9, 100),
	})
	if !reflect.DeepEqual(ds.Sessions[0].Items, []ItemID{7, 8, 9}) {
		t.Errorf("items = %v, want log order [7 8 9]", ds.Sessions[0].Items)
	}
}

func TestGroupEmpty(t *testing.T) {
	ds := Group("empty", nil)
	if len(ds.Sessions) != 0 || ds.NumItems != 0 {
		t.Errorf("empty dataset got sessions=%d items=%d", len(ds.Sessions), ds.NumItems)
	}
}

func TestFromSessionsRoundTrip(t *testing.T) {
	orig := Group("t", []Click{
		click(1, 5, 100), click(1, 6, 200), click(3, 2, 50),
	})
	again := FromSessions("t", orig.Sessions)
	if !reflect.DeepEqual(again.Sessions, orig.Sessions) {
		t.Error("FromSessions changed the session view")
	}
	if len(again.Clicks) != len(orig.Clicks) {
		t.Errorf("clicks = %d, want %d", len(again.Clicks), len(orig.Clicks))
	}
	if again.NumItems != orig.NumItems {
		t.Errorf("NumItems = %d, want %d", again.NumItems, orig.NumItems)
	}
}

func TestSessionTimeEmpty(t *testing.T) {
	var s Session
	if s.Time() != 0 {
		t.Errorf("empty session Time() = %d, want 0", s.Time())
	}
}

func TestTemporalSplit(t *testing.T) {
	day := int64(24 * 3600)
	ds := Group("t", []Click{
		// old sessions (train)
		click(1, 1, 1*day), click(1, 2, 1*day+10),
		click(2, 2, 2*day), click(2, 3, 2*day+10),
		// recent session (test), items 2,3 known, item 9 unseen in train
		click(3, 2, 9*day), click(3, 9, 9*day+5), click(3, 3, 9*day+10),
		// recent session that collapses below 2 known items -> dropped
		click(4, 9, 9*day+20), click(4, 1, 9*day+30),
	})
	sp := TemporalSplit(ds, 1)
	if len(sp.Train.Sessions) != 2 {
		t.Fatalf("train sessions = %d, want 2", len(sp.Train.Sessions))
	}
	if len(sp.Test.Sessions) != 1 {
		t.Fatalf("test sessions = %d, want 1", len(sp.Test.Sessions))
	}
	got := sp.Test.Sessions[0]
	if !reflect.DeepEqual(got.Items, []ItemID{2, 3}) {
		t.Errorf("test items = %v, want [2 3] (unseen item filtered)", got.Items)
	}
}

func TestTemporalSplitEmpty(t *testing.T) {
	sp := TemporalSplit(Group("e", nil), 1)
	if len(sp.Train.Sessions) != 0 || len(sp.Test.Sessions) != 0 {
		t.Error("split of empty dataset must be empty")
	}
}

func TestRenumberOrdersByTime(t *testing.T) {
	ds := Group("t", []Click{
		click(10, 1, 500),
		click(20, 2, 100),
		click(30, 3, 300),
	})
	rn := Renumber(ds)
	var times []int64
	for i := range rn.Sessions {
		if rn.Sessions[i].ID != SessionID(i) {
			t.Fatalf("session %d has id %d, want dense ids", i, rn.Sessions[i].ID)
		}
		times = append(times, rn.Sessions[i].Time())
	}
	if !sort.SliceIsSorted(times, func(a, b int) bool { return times[a] < times[b] }) {
		t.Errorf("renumbered sessions not in ascending time order: %v", times)
	}
}

// TestRenumberReusesRenumbered: a dataset already in Renumber's form comes
// back over the same click log, while one whose log interleaves sessions
// gets the log listed session by session, as FromSessions derives it.
func TestRenumberReusesRenumbered(t *testing.T) {
	ordered := FromSessions("o", []Session{
		{ID: 0, Items: []ItemID{1, 2}, Times: []int64{10, 20}},
		{ID: 1, Items: []ItemID{3}, Times: []int64{30}},
	})
	rn := Renumber(ordered)
	if &rn.Clicks[0] != &ordered.Clicks[0] || !reflect.DeepEqual(rn, ordered) {
		t.Errorf("renumbered dataset was copied or changed: %+v", rn)
	}

	interleaved := Group("i", []Click{click(0, 1, 10), click(1, 3, 15), click(0, 2, 20), click(1, 4, 25)})
	rn = Renumber(interleaved)
	want := FromSessions("i", interleaved.Sessions)
	if !reflect.DeepEqual(rn.Clicks, want.Clicks) || !reflect.DeepEqual(rn.Sessions, want.Sessions) {
		t.Errorf("interleaved log: got %+v, want %+v", rn.Clicks, want.Clicks)
	}
}

// TestTemporalSplitTestSessionsCapped: test sessions share one arena, so
// appending to one must not write into the next.
func TestTemporalSplitTestSessionsCapped(t *testing.T) {
	day := int64(24 * 3600)
	ds := Group("t", []Click{
		click(1, 1, day), click(1, 2, day+10),
		click(2, 1, 9*day), click(2, 2, 9*day+10),
		click(3, 2, 9*day+20), click(3, 1, 9*day+30),
	})
	test := TemporalSplit(ds, 1).Test.Sessions
	if len(test) != 2 {
		t.Fatalf("test sessions = %d, want 2", len(test))
	}
	_ = append(test[0].Items, 7)
	_ = append(test[0].Times, 7)
	if !reflect.DeepEqual(test[1].Items, []ItemID{2, 1}) || !reflect.DeepEqual(test[1].Times, []int64{9*day + 20, 9*day + 30}) {
		t.Errorf("append to one test session changed the next: %+v", test[1])
	}
}

func TestComputeStats(t *testing.T) {
	day := int64(24 * 3600)
	var clicks []Click
	// 4 sessions of lengths 2, 2, 4, 8 over 3 days.
	lens := []int{2, 2, 4, 8}
	for sid, n := range lens {
		for j := 0; j < n; j++ {
			clicks = append(clicks, click(SessionID(sid), ItemID(j), int64(sid%3)*day+int64(j)))
		}
	}
	st := ComputeStats(Group("t", clicks))
	if st.Clicks != 16 || st.Sessions != 4 || st.Items != 8 {
		t.Errorf("got clicks=%d sessions=%d items=%d", st.Clicks, st.Sessions, st.Items)
	}
	if st.Days != 3 {
		t.Errorf("days = %d, want 3", st.Days)
	}
	if st.P25 != 2 || st.P50 != 4 {
		t.Errorf("p25=%d p50=%d, want 2 4 (nearest-rank)", st.P25, st.P50)
	}
	if st.P99 != 8 {
		t.Errorf("p99 = %d, want 8", st.P99)
	}
	if !strings.Contains(st.String(), "clicks=16") {
		t.Errorf("String() = %q missing clicks", st.String())
	}
}

func TestPercentileIntEdges(t *testing.T) {
	if got := percentileInt(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty = %d, want 0", got)
	}
	if got := percentileInt([]int{7}, 0.99); got != 7 {
		t.Errorf("percentile of singleton = %d, want 7", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var clicks []Click
	for s := 0; s < 50; s++ {
		n := rng.Intn(6) + 2
		for j := 0; j < n; j++ {
			clicks = append(clicks, click(SessionID(s), ItemID(rng.Intn(100)), int64(1000*s+10*j)))
		}
	}
	ds := Group("rt", clicks)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf, "rt")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(back.Sessions, ds.Sessions) {
		t.Error("CSV round trip changed sessions")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct{ name, data string }{
		{"empty", ""},
		{"badHeader", "foo,bar,baz\n1,2,3\n"},
		{"badSession", "session_id,item_id,timestamp\nx,2,3\n"},
		{"badItem", "session_id,item_id,timestamp\n1,x,3\n"},
		{"badTime", "session_id,item_id,timestamp\n1,2,x\n"},
		{"wrongFields", "session_id,item_id,timestamp\n1,2\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.data), "t"); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestSaveLoadFileGzip(t *testing.T) {
	dir := t.TempDir()
	ds := Group("disk", []Click{click(1, 2, 3), click(1, 4, 5)})
	for _, name := range []string{"d.csv", "d.csv.gz"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, ds); err != nil {
			t.Fatalf("SaveFile(%s): %v", name, err)
		}
		back, err := LoadFile(path)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", name, err)
		}
		if !reflect.DeepEqual(back.Sessions, ds.Sessions) {
			t.Errorf("%s: round trip changed sessions", name)
		}
		if back.Name != "d" {
			t.Errorf("%s: name = %q, want d", name, back.Name)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.csv")); err == nil {
		t.Error("expected error for missing file")
	}
}

// TestGroupPropertyPreservesClicks: grouping never loses or invents clicks,
// for arbitrary input.
func TestGroupPropertyPreservesClicks(t *testing.T) {
	prop := func(raw []uint16) bool {
		var clicks []Click
		for i, v := range raw {
			clicks = append(clicks, Click{
				Session: SessionID(v % 17),
				Item:    ItemID(v % 31),
				Time:    int64(i % 13),
			})
		}
		ds := Group("p", clicks)
		total := 0
		for i := range ds.Sessions {
			s := &ds.Sessions[i]
			if len(s.Items) != len(s.Times) {
				return false
			}
			for j := 1; j < len(s.Times); j++ {
				if s.Times[j] < s.Times[j-1] {
					return false
				}
			}
			total += len(s.Items)
		}
		return total == len(clicks)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSplitPropertyDisjointAndTemporal: train and test session sets are
// disjoint and every train session is older than the cutoff implied by the
// newest session.
func TestSplitPropertyDisjointAndTemporal(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var clicks []Click
		day := int64(24 * 3600)
		for s := 0; s < 30; s++ {
			base := int64(rng.Intn(10)) * day
			for j := 0; j < 2+rng.Intn(4); j++ {
				clicks = append(clicks, click(SessionID(s), ItemID(rng.Intn(20)), base+int64(j)))
			}
		}
		ds := Group("p", clicks)
		sp := TemporalSplit(ds, 2)
		var maxTime int64
		for i := range ds.Sessions {
			if tm := ds.Sessions[i].Time(); tm > maxTime {
				maxTime = tm
			}
		}
		cutoff := maxTime - 2*day
		seen := map[SessionID]bool{}
		for i := range sp.Train.Sessions {
			s := &sp.Train.Sessions[i]
			if s.Time() > cutoff {
				return false
			}
			seen[s.ID] = true
		}
		for i := range sp.Test.Sessions {
			if seen[sp.Test.Sessions[i].ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
