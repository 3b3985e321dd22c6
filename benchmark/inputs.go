package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"serenade/internal/core"
	"serenade/internal/dataflow"
	"serenade/internal/index"
	"serenade/internal/sessions"
	"serenade/internal/synth"
)

const (
	profileName   = "ecom-60m-sim"
	indexCapacity = 1000

	// hot-long-closed: sessions of hotSessionLen clicks over the hotItems
	// items with the highest document frequency, so the kernel tail (the last
	// 9 clicks) is 9 posting lists of 600 to 1,000 sessions, 1,000 being the
	// index capacity.
	hotItems      = 64
	hotSessionLen = 20
	hotSessions   = 1000

	// cold-first-closed: one request per session on an item at most one
	// training session contains.
	coldMaxDF    = 1
	coldRequests = 20000
)

// noNext marks a request whose session has no held-out next click.
const noNext = ^sessions.ItemID(0)

// request is one click sent to the server. Session is the index of the
// logical session inside the workload; together with the phase and the lap
// it forms the session key, and it alone picks the connection.
type request struct {
	Session int32
	Item    sessions.ItemID
	Next    sessions.ItemID
	Consent bool
}

// sessionKey is the cookie value of a logical session in one lap of one
// phase; every phase and lap opens fresh server-side state.
func sessionKey(phase string, lap int, session int32) string {
	return phase + strconv.Itoa(lap) + "-" + strconv.Itoa(int(session))
}

// connOf assigns a session to a connection, so the clicks of one session
// arrive in order and responses are deterministic.
func connOf(session int32, conns int) int {
	return int((uint32(session) * 2654435761) >> 16 % uint32(conns))
}

// dataset is the seeded synthetic click log split as the paper evaluates
// it: the last day held out, the rest indexed.
type dataset struct {
	test      *sessions.Dataset
	idx       *core.Index
	generateS float64
	buildS    float64
}

func makeDataset(seed int64) (*dataset, error) {
	cfg, err := synth.Profile(profileName)
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	t0 := time.Now()
	full, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	split := sessions.TemporalSplit(full, 1)
	t1 := time.Now()
	idx, err := index.Build(dataflow.NewEngine(runtime.GOMAXPROCS(0)), sessions.Renumber(split.Train), indexCapacity)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if len(split.Test.Sessions) == 0 {
		return nil, fmt.Errorf("seed %d: empty held-out day", seed)
	}
	return &dataset{
		test:      split.Test,
		idx:       idx,
		generateS: t1.Sub(t0).Seconds(),
		buildS:    t2.Sub(t1).Seconds(),
	}, nil
}

// replayStream is the held-out day in click-timestamp order.
func replayStream(test *sessions.Dataset) []request {
	type click struct {
		t            int64
		session, pos int
	}
	var clicks []click
	for s := range test.Sessions {
		for p, t := range test.Sessions[s].Times {
			clicks = append(clicks, click{t, s, p})
		}
	}
	sort.Slice(clicks, func(a, b int) bool {
		x, y := clicks[a], clicks[b]
		if x.t != y.t {
			return x.t < y.t
		}
		if x.session != y.session {
			return x.session < y.session
		}
		return x.pos < y.pos
	})
	out := make([]request, len(clicks))
	for i, c := range clicks {
		items := test.Sessions[c.session].Items
		next := noNext
		if c.pos+1 < len(items) {
			next = items[c.pos+1]
		}
		out[i] = request{Session: int32(c.session), Item: items[c.pos], Next: next, Consent: true}
	}
	return out
}

// itemsByDF lists the indexed items, most sessions first, ties toward the
// smaller id.
func itemsByDF(idx *core.Index) []sessions.ItemID {
	items := make([]sessions.ItemID, idx.NumItems())
	for i := range items {
		items[i] = sessions.ItemID(i)
	}
	sort.SliceStable(items, func(a, b int) bool { return idx.DF(items[a]) > idx.DF(items[b]) })
	return items
}

func hotLongStream(idx *core.Index, seed int64) []request {
	hot := itemsByDF(idx)[:hotItems]
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, 0, hotSessions*hotSessionLen)
	for s := 0; s < hotSessions; s++ {
		for j := 0; j < hotSessionLen; j++ {
			out = append(out, request{Session: int32(s), Item: hot[rng.Intn(len(hot))], Next: noNext, Consent: true})
		}
	}
	return out
}

func coldFirstStream(idx *core.Index, seed int64) ([]request, error) {
	var cold []sessions.ItemID
	for i := 0; i < idx.NumItems(); i++ {
		if idx.DF(sessions.ItemID(i)) <= coldMaxDF {
			cold = append(cold, sessions.ItemID(i))
		}
	}
	if len(cold) == 0 {
		return nil, fmt.Errorf("seed %d: no item with DF <= %d", seed, coldMaxDF)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cold), func(a, b int) { cold[a], cold[b] = cold[b], cold[a] })
	first := rng.Intn(2)
	out := make([]request, coldRequests)
	for i := range out {
		out[i] = request{Session: int32(i), Item: cold[i%len(cold)], Next: noNext, Consent: (i+first)%2 == 0}
	}
	return out, nil
}

// agingStream is the traffic that brings a closed-loop server to the state
// of a long-lived pod before warm-up: more distinct requests than any
// bounded server-side table holds (largest today: the 65,536-entry
// idempotency table), each as cheap as a request gets.
func agingStream(idx *core.Index) []request {
	const n = 70000
	items := itemsByDF(idx)
	coldest := items[len(items)-1]
	out := make([]request, n)
	for i := range out {
		out[i] = request{Session: int32(i), Item: coldest, Next: noNext}
	}
	return out
}

func workloadStream(name string, ds *dataset, replay []request, seed int64) ([]request, error) {
	switch name {
	case "replay-open", "replay-closed":
		return replay, nil
	case "hot-long-closed":
		return hotLongStream(ds.idx, seed), nil
	case "cold-first-closed":
		return coldFirstStream(ds.idx, seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputsHash covers everything the server is given: the index file and the
// request streams.
func inputsHash(indexPath string, streams ...[]request) (string, error) {
	h := sha256.New()
	data, err := os.ReadFile(indexPath)
	if err != nil {
		return "", err
	}
	h.Write(data)
	var rec [13]byte
	for _, st := range streams {
		for _, r := range st {
			binary.LittleEndian.PutUint32(rec[0:], uint32(r.Session))
			binary.LittleEndian.PutUint32(rec[4:], uint32(r.Item))
			binary.LittleEndian.PutUint32(rec[8:], uint32(r.Next))
			rec[12] = 0
			if r.Consent {
				rec[12] = 1
			}
			h.Write(rec[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
