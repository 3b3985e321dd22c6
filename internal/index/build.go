// Package index implements Serenade's offline index generation and the
// on-disk index format.
//
// The paper builds the session similarity index once per day with a
// data-parallel Spark job over the last 180 days of click data and ships it
// to the serving machines as compressed Avro files (§4.2). Here the same
// relational plan — key each session's distinct items, group by item,
// sort each item's sessions by recency, truncate to the sample capacity —
// runs on the internal/dataflow engine, and the result is serialised as the
// CSR arena itself, section by section with a checksum each, so a serving
// pod maps the file instead of decoding it (see serde_v2.go).
package index

import (
	"fmt"
	"sort"

	"serenade/internal/core"
	"serenade/internal/dataflow"
	"serenade/internal/sessions"
)

// Build constructs the VMIS-kNN index from a renumbered dataset using the
// data-parallel engine. It produces bit-identical output to core.BuildIndex
// (which is the simple sequential builder); the parallel build is the
// production path because daily index generation dominates offline cost.
func Build(e *dataflow.Engine, ds *sessions.Dataset, capacity int) (*core.Index, error) {
	n := len(ds.Sessions)
	for i := range ds.Sessions {
		if ds.Sessions[i].ID != sessions.SessionID(i) {
			return nil, fmt.Errorf("index: session ids must be dense, got %d at position %d", ds.Sessions[i].ID, i)
		}
		if i > 0 && ds.Sessions[i].Time() < ds.Sessions[i-1].Time() {
			return nil, fmt.Errorf("index: session %d is older than its predecessor", i)
		}
	}

	parts := e.Workers() * 4
	col := dataflow.FromSlice(ds.Sessions, parts)

	// Stage 1: per-session distinct items, keyed by session position.
	type sessionView struct {
		id    sessions.SessionID
		time  int64
		items []sessions.ItemID
	}
	views := dataflow.Map(e, col, func(s sessions.Session) sessionView {
		seen := make(map[sessions.ItemID]struct{}, len(s.Items))
		unique := make([]sessions.ItemID, 0, len(s.Items))
		for _, it := range s.Items {
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			unique = append(unique, it)
		}
		return sessionView{id: s.ID, time: s.Time(), items: unique}
	})

	// Stage 2: shuffle (item -> session) pairs and group by item.
	pairs := dataflow.FlatMap(e, views, func(v sessionView) []dataflow.Pair[sessions.ItemID, sessions.SessionID] {
		out := make([]dataflow.Pair[sessions.ItemID, sessions.SessionID], len(v.items))
		for i, it := range v.items {
			out[i] = dataflow.Pair[sessions.ItemID, sessions.SessionID]{Key: it, Value: v.id}
		}
		return out
	})
	grouped := dataflow.GroupByKey(e, pairs, parts, dataflow.IntHasher[sessions.ItemID])

	// Stage 3: per item, order sessions most recent first (descending id ==
	// descending time for renumbered data), record the full document
	// frequency, truncate to capacity.
	type postingList struct {
		item     sessions.ItemID
		df       int32
		sessions []sessions.SessionID
	}
	lists := dataflow.Map(e, grouped, func(g dataflow.Pair[sessions.ItemID, []sessions.SessionID]) postingList {
		ids := g.Value
		sort.Slice(ids, func(a, b int) bool { return ids[a] > ids[b] })
		df := int32(len(ids))
		if capacity > 0 && len(ids) > capacity {
			ids = ids[:capacity:capacity]
		}
		return postingList{item: g.Key, df: df, sessions: ids}
	})

	// Assemble the dense structures.
	times := make([]int64, n)
	sessionItems := make([][]sessions.ItemID, n)
	for _, v := range views.Collect() {
		times[v.id] = v.time
		sessionItems[v.id] = v.items
	}
	postings := make([][]sessions.SessionID, ds.NumItems)
	df := make([]int32, ds.NumItems)
	for _, pl := range lists.Collect() {
		postings[pl.item] = pl.sessions
		df[pl.item] = pl.df
	}
	return core.NewIndexFromParts(times, postings, sessionItems, df, capacity)
}
