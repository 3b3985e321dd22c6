package main

import (
	"context"
	"io"
	"log/slog"
	"time"

	"serenade/client"
	"serenade/internal/core"
	"serenade/internal/index"
	"serenade/internal/kvstore"
	"serenade/internal/rank"
	"serenade/internal/serving"
	"serenade/internal/sessions"
	"serenade/internal/trending"
)

const (
	paramM = 500
	paramK = 100

	// checkOwn and checkReplay size the output check: that many requests of
	// the workload's own stream, then of the held-out day.
	checkOwn    = 1000
	checkReplay = 2000

	mrrCutoff = 20
)

// serverArgs are the flags the child is started with: the defaults of
// cmd/serenade-server except the index and the paper's m and k.
func serverArgs(indexPath string) []string {
	return []string{"-index", indexPath, "-m", "500", "-k", "100"}
}

// mirrorConfig is the serving.Config that cmd/serenade-server builds from
// serverArgs, for the in-process server the output check and the traced
// passes compare the child against. Keep it in step with that command's flag
// defaults.
func mirrorConfig() serving.Config {
	return serving.Config{
		Params:              core.Params{M: paramM, K: paramK},
		Recommendations:     serving.DefaultRecommendations,
		SessionTTL:          serving.DefaultSessionTTL,
		WALSync:             kvstore.SyncInterval,
		IdempotencyTTL:      serving.DefaultIdempotencyTTL,
		Catalog:             serving.NewCatalog(),
		FallbackToPopular:   true,
		OwnIndex:            true,
		Trending:            trending.New(2*time.Hour, nil),
		SlowQueryThreshold:  25 * time.Millisecond,
		TraceRingSize:       256,
		TraceSampleEvery:    16,
		Logger:              slog.New(slog.NewTextHandler(io.Discard, nil)),
		SLOLatencyThreshold: sla,
		SLOErrorBudget:      0.001,
	}
}

// newMirror loads the index file as the child does and serves it in process.
func newMirror(indexPath string) (*serving.Server, error) {
	idx, err := index.LoadFile(indexPath)
	if err != nil {
		return nil, err
	}
	srv, err := serving.NewServer(idx, mirrorConfig())
	if err != nil {
		idx.Close()
		return nil, err
	}
	return srv, nil
}

// checkResult is the outcome of the output check.
type checkResult struct {
	attempted  int
	failed     int // requests the socket did not answer
	mismatches int // answered, but not with the mirror's items in the mirror's order
	mrr        float64
}

// checkOutputs sends the first requests of the workload's stream and of the
// held-out day through the socket on fresh session keys, replays the same
// requests against a fresh in-process server, and compares item ids, order
// and session length. The mirror goes on through the rest of the held-out
// day: MRR@20 is taken over all of it, from the answers the socket's were
// just checked against, because over 2,000 requests alone it moves by 6 %
// from seed to seed and over the day by 1 %.
func checkOutputs(ctx context.Context, cl *client.Client, indexPath string, own, replay []request, conns int) (checkResult, error) {
	mirror, err := newMirror(indexPath)
	if err != nil {
		return checkResult{}, err
	}
	defer mirror.Close()

	var res checkResult
	var rrSum float64
	var rrEvents int
	for _, part := range []struct {
		phase  string
		stream []request
		limit  int
		score  bool
	}{
		{"co", own, checkOwn, false},
		{"cr", replay, checkReplay, true},
	} {
		sent := part.stream[:min(len(part.stream), part.limit)]
		got := make([]serving.Response, len(sent))
		errs := make([]error, len(sent))
		runLoad(ctx, cl, loadSpec{
			stream: sent, phase: part.phase, conns: conns,
			collect: func(i int, resp serving.Response, err error) { got[i], errs[i] = resp, err },
		})
		if err := ctx.Err(); err != nil {
			return res, err
		}
		mirrored := sent
		if part.score {
			mirrored = part.stream
		}
		for i, r := range mirrored {
			want, err := mirror.Recommend(serving.Request{
				SessionKey: sessionKey(part.phase, 0, r.Session), Item: r.Item, Consent: r.Consent,
			})
			if err != nil {
				return res, err
			}
			if part.score && r.Next != noNext {
				rrEvents++
				rrSum += rank.Reciprocal(rank.RankOfScored(want.Items, r.Next, mrrCutoff))
			}
			if i >= len(sent) {
				continue
			}
			res.attempted++
			switch {
			case errs[i] != nil:
				res.failed++
			case !sameAnswer(got[i], want):
				res.mismatches++
			}
		}
	}
	res.mrr = ratio(rrSum, float64(rrEvents))
	return res, nil
}

func sameAnswer(a, b serving.Response) bool {
	if a.SessionLength != b.SessionLength || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i].Item != b.Items[i].Item {
			return false
		}
	}
	return true
}

// kernelWork counts, through the index accessors, what the kernel is handed
// for a stream replayed once: per query the length of the tail it reads
// (the last DefaultMaxSessionLength clicks of the stored session) and the
// postings listed under that tail's distinct items.
func kernelWork(idx *core.Index, stream []request) (tailLenMean, postingsPerQuery float64) {
	hist := map[int32][]sessions.ItemID{}
	var tails, postings float64
	for _, r := range stream {
		h := []sessions.ItemID{r.Item}
		if r.Consent {
			h = append(hist[r.Session], r.Item)
			hist[r.Session] = h
		}
		if len(h) > core.DefaultMaxSessionLength {
			h = h[len(h)-core.DefaultMaxSessionLength:]
		}
		tails += float64(len(h))
		for i, it := range h {
			dup := false
			for _, prev := range h[:i] {
				dup = dup || prev == it
			}
			if !dup {
				postings += float64(len(idx.Postings(it)))
			}
		}
	}
	n := float64(len(stream))
	return tails / n, postings / n
}
