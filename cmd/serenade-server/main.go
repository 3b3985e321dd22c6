// Command serenade-server is the online serving component: a stateful
// recommendation server that loads the prebuilt session-similarity index,
// maintains evolving user sessions in a local TTL store, and answers
// next-item recommendation requests over HTTP (see internal/serving for the
// endpoints).
//
// Usage:
//
//	serenade-server -index index.srn -addr :8080 -m 500 -k 500
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the debug mux (flag-gated)
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"serenade/internal/core"
	"serenade/internal/index"
	"serenade/internal/kvstore"
	"serenade/internal/serving"
	"serenade/internal/trending"
)

// parseByteSize parses a human byte size for -gomemlimit: a plain integer is
// bytes; binary suffixes KiB/MiB/GiB/TiB and decimal KB/MB/GB/TB (and bare
// K/M/G/T, binary) are accepted, matching the runtime's GOMEMLIMIT syntax
// plus the decimal forms.
func parseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30}, {"TIB", 1 << 40},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"TB", 1e12},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"T", 1 << 40},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, u.suffix) {
			mult = u.mult
			t = strings.TrimSpace(t[:len(t)-len(u.suffix)])
			break
		}
	}
	n, err := strconv.ParseFloat(t, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return int64(n * float64(mult)), nil
}

// trendingMinScore is the decayed score below which the one-minute sweep
// stops tracking an item: a single click two half-lives old. Such an item
// is not trending, and dropping it leaves room under the tracker's item cap
// for items that are.
const trendingMinScore = 0.25

// rollover is the daily index rollover: load the index file at path (mmap
// for v2, so the new generation pages in on demand), swap it in under the
// in-flight traffic and record the load time. The replaced mapping is
// released once its last request drains; on failure the active index keeps
// serving.
func rollover(srv *serving.Server, path string) (*core.Index, time.Duration, error) {
	start := time.Now()
	next, err := index.LoadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if err := srv.SwapIndex(next); err != nil {
		next.Close()
		return nil, 0, err
	}
	d := time.Since(start)
	srv.RecordIndexLoad(d)
	return next, d, nil
}

// options is the server's command line.
type options struct {
	indexPath string
	addr      string
	m, k      int
	history   int
	slotSize  int
	ttl       time.Duration
	storeDir  string
	walSync   string
	walSyncIv time.Duration
	idemTTL   time.Duration
	fallback  bool
	trendHL   time.Duration
	debugAddr string
	slowQuery time.Duration
	traceRing int
	traceEach int
	logJSON   bool
	sloP99    time.Duration
	sloBudget float64
	sloErr    float64
	gogc      int
	memLimit  string
}

// flags registers every knob of the server on a new FlagSet that parses into
// o. TestFlags pins the set of names.
func (o *options) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("serenade-server", flag.ExitOnError)
	fs.StringVar(&o.indexPath, "index", "", "index file from serenade-indexer (required)")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.m, "m", 500, "recency sample size (hyperparameter m)")
	fs.IntVar(&o.k, "k", 500, "number of neighbours (hyperparameter k)")
	fs.IntVar(&o.history, "history", 0, "session items used for prediction (0 = all; 2 = serenade-hist; 1 = serenade-recent)")
	fs.IntVar(&o.slotSize, "recommendations", 21, "items per response")
	fs.DurationVar(&o.ttl, "session-ttl", 30*time.Minute, "session inactivity expiry")
	fs.StringVar(&o.storeDir, "store-dir", "", "durable session store directory (empty = memory only)")
	fs.StringVar(&o.walSync, "wal-sync", "interval", "session store WAL fsync policy: always | interval | never")
	fs.DurationVar(&o.walSyncIv, "wal-sync-interval", 5*time.Millisecond, "group-commit window for -wal-sync=interval")
	fs.DurationVar(&o.idemTTL, "idempotency-ttl", 2*time.Minute, "how long, from the first answer, a retry with the same X-Idempotency-Key, session, item and consent is replayed; 65,536 entries, oldest evicted when full (negative disables)")
	fs.BoolVar(&o.fallback, "fallback-popular", true, "pad short lists with popular items")
	fs.DurationVar(&o.trendHL, "trending-half-life", 2*time.Hour, "trending tracker half-life (0 disables /v1/trending)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled)")
	fs.DurationVar(&o.slowQuery, "slow-query", 25*time.Millisecond, "log requests slower than this (0 disables the slow-query log)")
	fs.IntVar(&o.traceRing, "trace-ring", 256, "traces retained for /debug/traces (<0 disables tracing sample retention)")
	fs.IntVar(&o.traceEach, "trace-sample", 16, "sample 1 in N requests into the trace ring (slow requests always kept)")
	fs.BoolVar(&o.logJSON, "log-json", false, "structured logs as JSON instead of text")
	fs.DurationVar(&o.sloP99, "slo-latency-p99", 50*time.Millisecond, "latency objective: requests slower than this burn error budget, tracked at /debug/slo (0 disables)")
	fs.Float64Var(&o.sloBudget, "slo-latency-budget", 0, "fraction of requests allowed to exceed -slo-latency-p99 (0 = default 1%, a p99 objective)")
	fs.Float64Var(&o.sloErr, "slo-error-budget", 0.001, "fraction of requests allowed to fail before the error-rate SLO burns (0 disables)")
	fs.IntVar(&o.gogc, "gogc", 0, "GC target percentage (runtime/debug.SetGCPercent); 0 keeps the runtime default / GOGC env. The mostly-static index heap tolerates a high value (e.g. 400) for fewer GC cycles")
	fs.StringVar(&o.memLimit, "gomemlimit", "", "soft memory limit, e.g. 4GiB (runtime/debug.SetMemoryLimit); empty keeps the runtime default / GOMEMLIMIT env. Pair with a high -gogc to cap the pod instead of pacing by live-heap growth")
	return fs
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("serenade-server: ")

	var o options
	o.flags().Parse(os.Args[1:]) // ExitOnError: a bad flag exits here
	if o.indexPath == "" {
		log.Fatal("-index is required")
	}
	if o.gogc > 0 {
		prev := debug.SetGCPercent(o.gogc)
		log.Printf("gc target set to %d%% (was %d%%)", o.gogc, prev)
	}
	if o.memLimit != "" {
		limit, err := parseByteSize(o.memLimit)
		if err != nil {
			log.Fatalf("-gomemlimit: %v", err)
		}
		debug.SetMemoryLimit(limit)
		log.Printf("soft memory limit set to %s (%d bytes)", o.memLimit, limit)
	}
	syncPolicy, err := kvstore.ParseSyncPolicy(o.walSync)
	if err != nil {
		log.Fatal(err)
	}

	var handler slog.Handler
	if o.logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	start := time.Now()
	idx, err := index.LoadFile(o.indexPath)
	if err != nil {
		log.Fatal(err)
	}
	loadDur := time.Since(start)
	heapBytes, mmapBytes := idx.MemoryBreakdown()
	log.Printf("loaded index: %d sessions, %d items in %v (mmap=%v, heap=%.1f MB, mmap=%.1f MB)",
		idx.NumSessions(), idx.NumItems(), loadDur.Round(time.Millisecond),
		idx.Mapped(), float64(heapBytes)/(1<<20), float64(mmapBytes)/(1<<20))

	var tracker *trending.Tracker
	if o.trendHL > 0 {
		tracker = trending.New(o.trendHL, nil)
	}

	srv, err := serving.NewServer(idx, serving.Config{
		Params:             core.Params{M: o.m, K: o.k},
		Recommendations:    o.slotSize,
		HistoryLength:      o.history,
		SessionTTL:         o.ttl,
		StoreDir:           o.storeDir,
		WALSync:            syncPolicy,
		WALSyncInterval:    o.walSyncIv,
		IdempotencyTTL:     o.idemTTL,
		Catalog:            serving.NewCatalog(),
		FallbackToPopular:  o.fallback,
		OwnIndex:           true, // rollover munmaps the outgoing index once drained
		Trending:           tracker,
		SlowQueryThreshold: o.slowQuery,
		TraceRingSize:      o.traceRing,
		TraceSampleEvery:   o.traceEach,
		Logger:             logger,

		SLOLatencyThreshold: o.sloP99,
		SLOLatencyBudget:    o.sloBudget,
		SLOErrorBudget:      o.sloErr,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	srv.RecordIndexLoad(loadDur)

	// SIGHUP triggers the daily rollover without downtime: reload the index
	// file (mmap for v2 — the new generation pages in on demand) and swap it
	// under the in-flight traffic; the replaced mapping is released once its
	// last request drains.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			next, d, err := rollover(srv, o.indexPath)
			if err != nil {
				logger.Error("index rollover failed", "path", o.indexPath, "err", err)
				continue
			}
			logger.Info("index rolled over", "sessions", next.NumSessions(),
				"items", next.NumItems(), "mmap", next.Mapped(), "load", d.Round(time.Millisecond))
		}
	}()

	// Once a minute: WAL compaction under -store-dir, and trending
	// compaction, which keeps a full tracker admitting new items. Expired
	// sessions need no pass; the store frees them as it writes.
	compactDone := make(chan struct{})
	go func() {
		ticker := time.NewTicker(time.Minute)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := srv.CompactSessions(); err != nil {
					logger.Error("session store compaction failed", "err", err)
				}
				if tracker != nil {
					tracker.Compact(trendingMinScore)
				}
			case <-compactDone:
				return
			}
		}
	}()
	defer close(compactDone)

	// Profiling endpoints live on their own listener so they are never
	// reachable through the public serving address: CPU and allocation
	// profiles of the live scoring kernel come from
	// /debug/pprof/{profile,heap,allocs} on this port only.
	if o.debugAddr != "" {
		go func() {
			dbg := &http.Server{
				Addr:              o.debugAddr,
				Handler:           http.DefaultServeMux, // net/http/pprof registers here
				ReadHeaderTimeout: 5 * time.Second,
			}
			log.Printf("pprof debug server on %s", o.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections and
	// drain in-flight requests (bounded at 10s). ListenAndServe returns as
	// soon as Shutdown is CALLED, so main must wait on `drained` — which
	// closes only when Shutdown RETURNS — before reporting final state.
	drained := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		logger.Info("shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete", "err", err)
		}
		close(drained)
	}()

	fmt.Printf("serving on %s\n", o.addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	srv.FlushSlowLog()

	st := srv.Stats()
	attrs := []any{
		"requests", st.Requests,
		"errors", st.Errors,
		"mean", st.MeanLatency,
		"p90", st.P90Latency,
		"p995", st.P995Latency,
	}
	for _, sg := range st.Stages {
		attrs = append(attrs, "stage_"+sg.Stage+"_p90", sg.P90Latency)
	}
	logger.Info("final stats", attrs...)
}
