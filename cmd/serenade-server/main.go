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
	"serenade/internal/obs/quality"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("serenade-server: ")

	var (
		indexPath = flag.String("index", "", "index file from serenade-indexer (required)")
		addr      = flag.String("addr", ":8080", "listen address")
		m         = flag.Int("m", 500, "recency sample size (hyperparameter m)")
		k         = flag.Int("k", 500, "number of neighbours (hyperparameter k)")
		history   = flag.Int("history", 0, "session items used for prediction (0 = all; 2 = serenade-hist; 1 = serenade-recent)")
		slotSize  = flag.Int("recommendations", 21, "items per response")
		ttl       = flag.Duration("session-ttl", 30*time.Minute, "session inactivity expiry")
		storeDir  = flag.String("store-dir", "", "durable session store directory (empty = memory only)")
		walSync   = flag.String("wal-sync", "interval", "session store WAL fsync policy: always | interval | never")
		walSyncIv = flag.Duration("wal-sync-interval", 5*time.Millisecond, "group-commit window for -wal-sync=interval")
		idemTTL   = flag.Duration("idempotency-ttl", 2*time.Minute, "how long, from the first answer, a retry with the same X-Idempotency-Key, session, item and consent is replayed; 65,536 entries, oldest evicted when full (negative disables)")
		fallback  = flag.Bool("fallback-popular", true, "pad short lists with popular items")
		trendHL   = flag.Duration("trending-half-life", 2*time.Hour, "trending tracker half-life (0 disables /v1/trending)")
		debugAddr = flag.String("debug-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled)")
		slowQuery = flag.Duration("slow-query", 25*time.Millisecond, "log requests slower than this (0 disables the slow-query log)")
		traceRing = flag.Int("trace-ring", 256, "traces retained for /debug/traces (<0 disables tracing sample retention)")
		traceEach = flag.Int("trace-sample", 16, "sample 1 in N requests into the trace ring (slow requests always kept)")
		logJSON   = flag.Bool("log-json", false, "structured logs as JSON instead of text")
		cacheSize = flag.Int("result-cache-size", 0, "single-flight result cache entries (0 disables the cache)")
		cacheTTL  = flag.Duration("result-cache-ttl", 0, "result cache entry lifetime (0 = default 5s)")
		sloP99    = flag.Duration("slo-latency-p99", 50*time.Millisecond, "latency objective: requests slower than this burn error budget, tracked at /debug/slo (0 disables)")
		sloBudget = flag.Float64("slo-latency-budget", 0, "fraction of requests allowed to exceed -slo-latency-p99 (0 = default 1%, a p99 objective)")
		sloErr    = flag.Float64("slo-error-budget", 0.001, "fraction of requests allowed to fail before the error-rate SLO burns (0 disables)")

		qVariant  = flag.String("quality-variant", "", "enable quality telemetry (POST /track, GET /debug/quality), naming this replica's A/B arm")
		qWindow   = flag.Duration("quality-window", 0, "click-attribution window (0 = default 2m; requires -quality-variant)")
		qBaseline = flag.String("quality-baseline", "", "offline baseline JSON from `serenade-eval -quality-baseline`, enables drift detection")

		gogc     = flag.Int("gogc", 0, "GC target percentage (runtime/debug.SetGCPercent); 0 keeps the runtime default / GOGC env. The mostly-static index heap tolerates a high value (e.g. 400) for fewer GC cycles")
		memLimit = flag.String("gomemlimit", "", "soft memory limit, e.g. 4GiB (runtime/debug.SetMemoryLimit); empty keeps the runtime default / GOMEMLIMIT env. Pair with a high -gogc to cap the pod instead of pacing by live-heap growth")
	)
	flag.Parse()
	if *indexPath == "" {
		log.Fatal("-index is required")
	}
	if *gogc > 0 {
		prev := debug.SetGCPercent(*gogc)
		log.Printf("gc target set to %d%% (was %d%%)", *gogc, prev)
	}
	if *memLimit != "" {
		limit, err := parseByteSize(*memLimit)
		if err != nil {
			log.Fatalf("-gomemlimit: %v", err)
		}
		debug.SetMemoryLimit(limit)
		log.Printf("soft memory limit set to %s (%d bytes)", *memLimit, limit)
	}
	syncPolicy, err := kvstore.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatal(err)
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	start := time.Now()
	idx, err := index.LoadFile(*indexPath)
	if err != nil {
		log.Fatal(err)
	}
	loadDur := time.Since(start)
	heapBytes, mmapBytes := idx.MemoryBreakdown()
	log.Printf("loaded index: %d sessions, %d items in %v (mmap=%v, heap=%.1f MB, mmap=%.1f MB)",
		idx.NumSessions(), idx.NumItems(), loadDur.Round(time.Millisecond),
		idx.Mapped(), float64(heapBytes)/(1<<20), float64(mmapBytes)/(1<<20))

	var tracker *trending.Tracker
	if *trendHL > 0 {
		tracker = trending.New(*trendHL, nil)
	}

	var qualityOpts *quality.Options
	if *qVariant != "" || *qBaseline != "" {
		qualityOpts = &quality.Options{Variant: *qVariant, Window: *qWindow}
		if *qBaseline != "" {
			base, err := quality.LoadBaseline(*qBaseline)
			if err != nil {
				log.Fatal(err)
			}
			qualityOpts.Baseline = base
			log.Printf("loaded quality baseline %s: profile=%s MRR@%d=%.4f cond=%.4f events=%d",
				*qBaseline, base.Profile, base.K, base.MRR, base.CondMRR, base.Events)
		}
	}
	srv, err := serving.NewServer(idx, serving.Config{
		Params:             core.Params{M: *m, K: *k},
		ResultCacheSize:    *cacheSize,
		ResultCacheTTL:     *cacheTTL,
		Recommendations:    *slotSize,
		HistoryLength:      *history,
		SessionTTL:         *ttl,
		StoreDir:           *storeDir,
		WALSync:            syncPolicy,
		WALSyncInterval:    *walSyncIv,
		IdempotencyTTL:     *idemTTL,
		Catalog:            serving.NewCatalog(),
		FallbackToPopular:  *fallback,
		OwnIndex:           true, // rollover munmaps the outgoing index once drained
		Trending:           tracker,
		SlowQueryThreshold: *slowQuery,
		TraceRingSize:      *traceRing,
		TraceSampleEvery:   *traceEach,
		Logger:             logger,

		SLOLatencyThreshold: *sloP99,
		SLOLatencyBudget:    *sloBudget,
		SLOErrorBudget:      *sloErr,

		Quality: qualityOpts,
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
			t0 := time.Now()
			next, err := index.LoadFile(*indexPath)
			if err != nil {
				logger.Error("index reload failed", "path", *indexPath, "err", err)
				continue
			}
			if err := srv.SwapIndex(next); err != nil {
				next.Close()
				logger.Error("index swap rejected", "err", err)
				continue
			}
			d := time.Since(t0)
			srv.RecordIndexLoad(d)
			logger.Info("index rolled over", "sessions", next.NumSessions(),
				"items", next.NumItems(), "mmap", next.Mapped(), "load", d.Round(time.Millisecond))
		}
	}()

	// Periodic session expiry, mirroring the 30-minute RocksDB TTL.
	sweepDone := make(chan struct{})
	go func() {
		ticker := time.NewTicker(time.Minute)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if n := srv.SweepSessions(); n > 0 {
					log.Printf("swept %d expired sessions", n)
				}
			case <-sweepDone:
				return
			}
		}
	}()
	defer close(sweepDone)

	// Profiling endpoints live on their own listener so they are never
	// reachable through the public serving address: CPU and allocation
	// profiles of the live scoring kernel come from
	// /debug/pprof/{profile,heap,allocs} on this port only.
	if *debugAddr != "" {
		go func() {
			dbg := &http.Server{
				Addr:              *debugAddr,
				Handler:           http.DefaultServeMux, // net/http/pprof registers here
				ReadHeaderTimeout: 5 * time.Second,
			}
			log.Printf("pprof debug server on %s", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
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

	fmt.Printf("serving on %s\n", *addr)
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
