// Package sessions defines the click and session data model shared by every
// component of the system, along with dataset I/O, temporal train/test
// splitting, and the per-dataset statistics reported in Table 1 of the paper.
//
// A dataset is a set of click tuples (session_id, item_id, timestamp), the
// exact schema the paper's datasets use. Sessions group clicks by session id
// in timestamp order; the timestamp of a session is the timestamp of its most
// recent click, which is what the recency-based sampling of VS-kNN/VMIS-kNN
// keys on.
package sessions

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// ItemID identifies an item in the catalog. Consecutive small integers are
// used throughout so that index structures can use dense arrays.
type ItemID uint32

// SessionID identifies a historical or evolving session. Historical session
// ids are consecutive integers so that the timestamp array t of the VMIS-kNN
// index can be a dense slice.
type SessionID uint32

// Click is one user-item interaction.
type Click struct {
	Session SessionID
	Item    ItemID
	// Time is a unix timestamp in seconds.
	Time int64
}

// Session is the grouped, time-ordered view of one session's clicks.
type Session struct {
	ID    SessionID
	Items []ItemID
	// Times holds the click timestamp for each entry of Items.
	Times []int64
}

// Time returns the session timestamp: the time of the most recent click.
// It returns 0 for an empty session.
func (s *Session) Time() int64 {
	if len(s.Times) == 0 {
		return 0
	}
	return s.Times[len(s.Times)-1]
}

// Len returns the number of clicks in the session.
func (s *Session) Len() int { return len(s.Items) }

// Dataset is a collection of clicks plus the grouped session view.
type Dataset struct {
	Name     string
	Clicks   []Click
	Sessions []Session
	// NumItems is one greater than the largest item id present, i.e. the
	// size of a dense item-indexed array.
	NumItems int
}

// Group builds the session view from a click log. Clicks are grouped by
// session id and ordered by timestamp within each session (ties broken by
// input order, which matches log order). Sessions are returned ordered by
// session id.
func Group(name string, clicks []Click) *Dataset {
	bySession := make(map[SessionID][]Click)
	maxItem := ItemID(0)
	for _, c := range clicks {
		bySession[c.Session] = append(bySession[c.Session], c)
		if c.Item > maxItem {
			maxItem = c.Item
		}
	}
	ids := make([]SessionID, 0, len(bySession))
	for id := range bySession {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	sessions := make([]Session, 0, len(ids))
	for _, id := range ids {
		cs := bySession[id]
		sort.SliceStable(cs, func(i, j int) bool { return cs[i].Time < cs[j].Time })
		s := Session{
			ID:    id,
			Items: make([]ItemID, len(cs)),
			Times: make([]int64, len(cs)),
		}
		for i, c := range cs {
			s.Items[i] = c.Item
			s.Times[i] = c.Time
		}
		sessions = append(sessions, s)
	}
	numItems := 0
	if len(clicks) > 0 {
		numItems = int(maxItem) + 1
	}
	return &Dataset{Name: name, Clicks: clicks, Sessions: sessions, NumItems: numItems}
}

// FromSessions builds a Dataset directly from grouped sessions, deriving the
// flat click log.
func FromSessions(name string, sessions []Session) *Dataset {
	total := 0
	maxItem := ItemID(0)
	for i := range sessions {
		total += len(sessions[i].Items)
		for _, it := range sessions[i].Items {
			if it > maxItem {
				maxItem = it
			}
		}
	}
	clicks := make([]Click, 0, total)
	for i := range sessions {
		s := &sessions[i]
		for j := range s.Items {
			clicks = append(clicks, Click{Session: s.ID, Item: s.Items[j], Time: s.Times[j]})
		}
	}
	numItems := 0
	if total > 0 {
		numItems = int(maxItem) + 1
	}
	return &Dataset{Name: name, Clicks: clicks, Sessions: sessions, NumItems: numItems}
}

// Split holds a temporal train/test partition of a dataset.
type Split struct {
	Train *Dataset
	Test  *Dataset
}

// TemporalSplit partitions the dataset into historical sessions (train) and
// held-out evolving sessions (test) by session timestamp: sessions whose
// most recent click falls within the final testDays days of the dataset's
// time range form the test set. This mirrors the paper's evaluation setup
// ("we use the last day as held-out test set"). Items that never occur in
// the training set are removed from test sessions, since no collaborative
// method can predict unseen items; test sessions that drop below two clicks
// are discarded (a next-item prediction needs at least one context click and
// one target).
func TemporalSplit(ds *Dataset, testDays int) Split {
	if len(ds.Sessions) == 0 {
		return Split{
			Train: FromSessions(ds.Name+"-train", nil),
			Test:  FromSessions(ds.Name+"-test", nil),
		}
	}
	var maxTime int64
	for i := range ds.Sessions {
		if t := ds.Sessions[i].Time(); t > maxTime {
			maxTime = t
		}
	}
	cutoff := maxTime - int64(testDays)*24*3600

	nTrain := 0
	for i := range ds.Sessions {
		if ds.Sessions[i].Time() <= cutoff {
			nTrain++
		}
	}
	train := make([]Session, 0, nTrain)
	test := make([]Session, 0, len(ds.Sessions)-nTrain)
	inTrain := make([]bool, ds.NumItems)
	testClicks := 0
	for i := range ds.Sessions {
		s := ds.Sessions[i]
		if s.Time() > cutoff {
			test = append(test, s)
			testClicks += len(s.Items)
			continue
		}
		train = append(train, s)
		for _, it := range s.Items {
			inTrain[it] = true
		}
	}

	// The kept test clicks go to two arenas, each session a capped
	// sub-slice of them.
	items := make([]ItemID, 0, testClicks)
	times := make([]int64, 0, testClicks)
	filtered := test[:0]
	for _, s := range test {
		n := len(items)
		for j, it := range s.Items {
			if inTrain[it] {
				items = append(items, it)
				times = append(times, s.Times[j])
			}
		}
		if len(items)-n < 2 {
			items, times = items[:n], times[:n]
			continue
		}
		filtered = append(filtered, Session{ID: s.ID, Items: items[n:len(items):len(items)], Times: times[n:len(times):len(times)]})
	}
	// The test split keeps test's array; drop the entries past filtered,
	// which still point into ds's click storage.
	clear(test[len(filtered):])
	return Split{
		Train: FromSessions(ds.Name+"-train", train),
		Test:  FromSessions(ds.Name+"-test", filtered),
	}
}

// Renumber returns the dataset with session ids renumbered to consecutive
// integers from 0 in ascending session-timestamp order, ties in input
// order, and the click log listed session by session in that order. The
// VMIS-kNN index requires dense session ids for its timestamp array t.
//
// A dataset that already has that form, such as Generate's output and the
// train split TemporalSplit takes from it, comes back as a new header over
// the same sessions and click log; nothing is copied.
func Renumber(ds *Dataset) *Dataset {
	if isRenumbered(ds) {
		out := *ds
		return &out
	}
	return RenumberSessions(ds.Name, ds.Sessions)
}

// RenumberSessions is FromSessions over ss renumbered as Renumber does.
// The returned sessions share their Items and Times with ss.
func RenumberSessions(name string, ss []Session) *Dataset {
	type key struct {
		time int64
		pos  int
	}
	keys := make([]key, len(ss))
	for i := range ss {
		keys[i] = key{ss[i].Time(), i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.time, b.time); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	out := make([]Session, len(keys))
	for newID, k := range keys {
		s := &ss[k.pos]
		out[newID] = Session{ID: SessionID(newID), Items: s.Items, Times: s.Times}
	}
	return FromSessions(name, out)
}

// isRenumbered reports whether Renumber would return ds unchanged: ids
// dense and in time order, and the click log in session order.
func isRenumbered(ds *Dataset) bool {
	c := 0
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		if s.ID != SessionID(i) || (i > 0 && s.Time() < ds.Sessions[i-1].Time()) {
			return false
		}
		for j, it := range s.Items {
			if c >= len(ds.Clicks) || ds.Clicks[c] != (Click{Session: s.ID, Item: it, Time: s.Times[j]}) {
				return false
			}
			c++
		}
	}
	return c == len(ds.Clicks)
}

// Stats summarises a dataset in the shape of Table 1 of the paper.
type Stats struct {
	Name     string
	Clicks   int
	Sessions int
	Items    int
	Days     int
	// P25, P50, P75, P99 are percentiles of the clicks-per-session
	// distribution.
	P25, P50, P75, P99 int
}

// ComputeStats derives Table 1 statistics for a dataset.
func ComputeStats(ds *Dataset) Stats {
	st := Stats{Name: ds.Name, Clicks: len(ds.Clicks), Sessions: len(ds.Sessions)}
	items := make(map[ItemID]struct{})
	lengths := make([]int, 0, len(ds.Sessions))
	var minT, maxT int64
	first := true
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		lengths = append(lengths, s.Len())
		for _, it := range s.Items {
			items[it] = struct{}{}
		}
		for _, t := range s.Times {
			if first {
				minT, maxT = t, t
				first = false
				continue
			}
			if t < minT {
				minT = t
			}
			if t > maxT {
				maxT = t
			}
		}
	}
	st.Items = len(items)
	if !first {
		st.Days = int((maxT-minT)/(24*3600)) + 1
	}
	sort.Ints(lengths)
	st.P25 = percentileInt(lengths, 0.25)
	st.P50 = percentileInt(lengths, 0.50)
	st.P75 = percentileInt(lengths, 0.75)
	st.P99 = percentileInt(lengths, 0.99)
	return st
}

// percentileInt returns the p-quantile (0 <= p <= 1) of sorted values using
// nearest-rank interpolation. It returns 0 for empty input.
func percentileInt(sorted []int, p float64) int {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String formats the statistics as one Table 1 row.
func (s Stats) String() string {
	return fmt.Sprintf("%-18s clicks=%-10d sessions=%-9d items=%-8d days=%-4d p25=%d p50=%d p75=%d p99=%d",
		s.Name, s.Clicks, s.Sessions, s.Items, s.Days, s.P25, s.P50, s.P75, s.P99)
}
