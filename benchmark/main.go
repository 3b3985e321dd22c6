// Command benchmark is the repository's one measurement harness: it builds
// cmd/serenade-server, runs it as a separate process on a loopback port and
// drives it through the production client over real sockets. See README.md
// for the workloads, the metric glossary and how to read the tables.
//
//	go run -C benchmark . --workload replay-open --seed 1 --seconds 15 --trace 0
//	go run -C benchmark . -seed 1                 # all workloads, both tables
//	go run -C benchmark . -repeat 5               # medians, quartiles, spread
//	go run -C benchmark . -agree a.json b.json    # two result sets within bounds?
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"serenade/internal/index"
	"serenade/internal/obs"
)

// workload is one traffic mix. The names are fixed: BENCHMARK.json and
// later changes refer to them.
type workload struct {
	name string
	why  string
	// rate > 0 is the open-loop request rate; 0 is a closed loop.
	rate float64
	// aged workloads measure a server that has already served more requests
	// than its bounded tables hold, as a long-lived pod at their rate has.
	aged bool
}

var workloads = []workload{
	{"replay-open", "held-out day at a fixed 500 req/s, timed from the due time: the paper's load test, every layer in production proportion", 500, false},
	{"replay-closed", "the same traffic as fast as 2 connections allow: capacity, contention, GC and bounded tables at their limit", 0, true},
	{"hot-long-closed", "20-click sessions over the 64 most frequent items: 9 long posting lists (600-1000, the cap) per query, core does most of the work", 0, true},
	{"cold-first-closed", "every request a new session on an item with DF<=1, consent alternating: core does ~nothing, the edge and kvstore inserts/deletes do", 0, true},
}

const (
	warmUp       = 3 * time.Second
	agingCap     = 12 * time.Second
	agingConns   = 16
	setupRepeats = 7
)

// environment is where and how the harness runs.
type environment struct {
	root        string // the checkout
	bin         string // the built server
	tmp         string // index files of this run, removed at exit
	out         string // benchmark/out: child stderr, traces, result sets
	nproc       int
	conns       int
	serverProcs int
	serverFlags []string
}

func (e *environment) childArgs(indexPath string) []string {
	return append(serverArgs(indexPath), e.serverFlags...)
}

func (e *environment) outPath(name string) string { return filepath.Join(e.out, name) }

func newEnvironment(serverFlags string) (*environment, error) {
	bench, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := filepath.Dir(bench)
	if _, err := os.Stat(filepath.Join(root, "cmd", "serenade-server")); err != nil {
		return nil, fmt.Errorf("run from the benchmark directory of a checkout (go run -C benchmark .): %w", err)
	}
	build := filepath.Join(root, ".bench_build")
	out := filepath.Join(bench, "out")
	for _, dir := range []string{build, out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	return &environment{
		root: root, bin: filepath.Join(build, "serenade-server"), tmp: tmp, out: out,
		nproc: nproc, conns: min(nproc, 2), serverProcs: max(1, nproc-1),
		serverFlags: strings.Fields(serverFlags),
	}, nil
}

// runRecord is everything one run of one workload produced.
type runRecord struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Traced       bool               `json:"traced"`
	InputsSHA256 string             `json:"inputs_sha256"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Samples      int                `json:"latency_samples"`
	PerSecond    []int              `json:"per_second"`
	SecP50Ms     []float64          `json:"p50_ms_per_second"`
	SecP90Ms     []float64          `json:"p90_ms_per_second"`
	Metrics      map[string]float64 `json:"metrics"`
	problems     []string
}

// setupTimes are the parts of one set-up, seconds.
type setupTimes struct{ generate, build, save, start, total float64 }

// system is what set-up leaves behind: the dataset, the index file and a
// healthy server on it, with the median of each set-up figure.
type system struct {
	ds        *dataset
	indexPath string
	fileMB    float64
	srv       *server
	times     setupTimes
}

// setUp generates the dataset, builds and saves the index and starts the
// server on it, setupRepeats times over; the last server stays up. Each
// figure reported is the median over the repeats.
func setUp(ctx context.Context, env *environment, w workload, seed int64) (*system, error) {
	sys := &system{}
	var generate, build, save, start, total []float64
	for k := 0; k < setupRepeats; k++ {
		if sys.srv != nil {
			if err := sys.srv.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if sys.ds, err = makeDataset(seed); err != nil {
			return nil, err
		}
		sys.indexPath = filepath.Join(env.tmp, fmt.Sprintf("index-%d.srn", k))
		t0 := time.Now()
		if err := index.SaveFile(sys.indexPath, sys.ds.idx); err != nil {
			return nil, err
		}
		saved := time.Since(t0).Seconds()
		var started time.Duration
		sys.srv, started, err = startServer(ctx, env.bin, env.childArgs(sys.indexPath), env.serverProcs, env.outPath("server-"+w.name+".stderr.log"))
		if err != nil {
			return nil, err
		}
		generate = append(generate, sys.ds.generateS)
		build = append(build, sys.ds.buildS)
		save = append(save, saved)
		start = append(start, started.Seconds())
		total = append(total, sys.ds.generateS+sys.ds.buildS+saved+started.Seconds())
	}
	if fi, err := os.Stat(sys.indexPath); err == nil {
		sys.fileMB = float64(fi.Size()) / (1 << 20)
	}
	med := func(v []float64) float64 {
		_, m, _ := quartiles(v)
		return m
	}
	sys.times = setupTimes{med(generate), med(build), med(save), med(start), med(total)}
	return sys, nil
}

// runWorkload measures one workload once. With traced set the window is half
// as long and the traced passes take the other half; the record then holds
// the per-layer metrics, otherwise the end-to-end ones.
func runWorkload(ctx context.Context, env *environment, w workload, seed int64, seconds int, traced bool) (*runRecord, error) {
	sys, err := setUp(ctx, env, w, seed)
	if err != nil {
		return nil, err
	}
	ds, indexPath, srv := sys.ds, sys.indexPath, sys.srv
	defer srv.stop()

	replay := replayStream(ds.test)
	stream, err := workloadStream(w.name, ds, replay, seed)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: w.name, Seed: seed, Traced: traced}
	if rec.InputsSHA256, err = inputsHash(indexPath, stream, replay); err != nil {
		return nil, err
	}

	if w.aged {
		cl, tp, err := newClient(srv.base, agingConns, time.Second)
		if err != nil {
			return nil, err
		}
		actx, cancel := context.WithTimeout(ctx, agingCap)
		samples, took := runLoad(actx, cl, loadSpec{stream: agingStream(ds.idx), phase: "a", conns: agingConns})
		cancel()
		tp.CloseIdleConnections()
		logf("%s: aged the server with %d requests in %.1fs", w.name, len(samples), took.Seconds())
	}

	cl, tp, err := newClient(srv.base, env.conns, clientTimeout)
	if err != nil {
		return nil, err
	}
	defer tp.CloseIdleConnections()
	runLoad(ctx, cl, loadSpec{stream: stream, phase: "w", conns: env.conns, rate: w.rate, duration: warmUp})

	window := time.Duration(seconds) * time.Second
	if traced {
		window /= 2
	}
	scrape0, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	stopCPU := make(chan struct{})
	cpuPoints := srv.watchCPU(stopCPU)
	samples, _ := runLoad(ctx, cl, loadSpec{stream: stream, phase: "r", conns: env.conns, rate: w.rate, duration: window})
	close(stopCPU)
	cpu := <-cpuPoints
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	proc1, err := srv.proc()
	if err != nil {
		return nil, fmt.Errorf("server gone after the window: %w", err)
	}
	scrape1, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	load := summarize(samples, window)
	prom := promDelta{scrape0, scrape1}

	checkCl, checkTp, err := newClient(srv.base, env.conns, clientTimeout)
	if err != nil {
		return nil, err
	}
	check, err := checkOutputs(ctx, checkCl, indexPath, stream, replay, env.conns)
	checkTp.CloseIdleConnections()
	if err != nil {
		return nil, err
	}

	if !srv.alive() {
		rec.problems = append(rec.problems, "server exited before it was stopped")
	}
	if err := srv.stop(); err != nil {
		rec.problems = append(rec.problems, err.Error())
	}
	if check.mismatches > 0 {
		rec.problems = append(rec.problems, fmt.Sprintf("%d of %d checked answers differ from the in-process server's", check.mismatches, check.attempted))
	}
	rec.Correct = len(rec.problems) == 0

	// An operation fails when it has no answer or a wrong one. An answer
	// after the SLA is a right answer that came late: it is no failure, but it
	// is a miss in ok_ratio and is left out of throughput_rps.
	rec.Attempted = load.sent + check.attempted
	rec.Failed = load.timeouts + load.httpErrors + check.failed + check.mismatches
	good := rec.Attempted - rec.Failed - load.slaMisses
	rec.Samples = len(load.okLat)
	rec.PerSecond = load.perSecond
	rec.SecP50Ms, rec.SecP90Ms = load.secP50Ms, load.secP90Ms

	if !traced {
		rec.Metrics = map[string]float64{
			"p50_ms":         median(load.secP50Ms),
			"p90_ms":         median(load.secP90Ms),
			"throughput_rps": goodputPerSecond(load.perSecond),
			"ok_ratio":       float64(good) / float64(rec.Attempted),
			"cpu_us_per_req": cpuPerRequestUs(cpu, samples),
			"mrr20":          check.mrr,
			"rss_mb":         proc1.hwmMB,
			"setup_s":        sys.times.total,
		}
		return rec, nil
	}

	tr := newTracer(traceSample * 12)
	ts, err := runTracedPasses(ctx, env, indexPath, stream, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.writeFile(env.outPath("trace-" + w.name + ".jsonl")); err != nil {
		return nil, err
	}
	tailLen, postings := kernelWork(ds.idx, stream[:ts.requests])

	reqs := prom.delta("serenade_request_latency_seconds_count")
	reqSum := prom.delta("serenade_request_latency_seconds_sum")
	stage := func(name string) float64 {
		return prom.delta(`serenade_stage_latency_seconds_sum{stage="` + name + `"}`)
	}
	var stageSum float64
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		stageSum += stage(st.String())
	}
	requestMeanUs := ratio(reqSum, reqs) * 1e6
	cacheHits := prom.delta("serenade_result_cache_hits_total") + prom.delta("serenade_result_cache_coalesced_total")
	kvPerReq := ts.layerReq["kvstore.get"] + ts.layerReq["kvstore.put"] + ts.layerReq["kvstore.delete"]
	corePerReq := ts.layerReq["core.candidates"] + ts.layerReq["core.score"]
	recommendSelf := ts.pass[passServer] - kvPerReq - corePerReq

	rec.Metrics = map[string]float64{
		"gen.late_p99_us":       load.latePct99Us,
		"gen.backlog_end_ms":    load.backlogEndMs,
		"client.sent":           float64(load.sent),
		"client.ok":             float64(load.ok),
		"client.timeouts":       float64(load.timeouts),
		"client.sla_misses":     float64(load.slaMisses),
		"client.http_errors":    float64(load.httpErrors),
		"client.mismatches":     float64(check.mismatches),
		"client.p99_ms":         float64(percentile(load.okLat, 0.99)) / 1e6,
		"client.p995_ms":        float64(percentile(load.okLat, 0.995)) / 1e6,
		"client.max_ms":         load.maxMs,
		"client.rate_drift":     rateDrift(load.perSecond),
		"net.roundtrip_self_us": ts.pass[passSocket] - ts.pass[passHandler],

		"serving.request_mean_us":          requestMeanUs,
		"serving.stage_store_mean_us":      ratio(stage("store"), reqs) * 1e6,
		"serving.stage_candidates_mean_us": ratio(stage("candidates"), reqs) * 1e6,
		"serving.stage_score_mean_us":      ratio(stage("score"), reqs) * 1e6,
		"serving.stage_filter_mean_us":     ratio(stage("filter"), reqs) * 1e6,
		"serving.stage_encode_mean_us":     ratio(stage("encode"), reqs) * 1e6,
		"serving.stage_batch_wait_mean_us": ratio(stage("batch_wait"), reqs) * 1e6,
		"serving.stage_sum_ratio":          ratio(stageSum, reqSum),
		"serving.edge_unaccounted_us":      load.meanSvcUs - requestMeanUs,
		"serving.idempotency_entries":      prom.gauge("serenade_idempotency_entries"),
		"serving.idempotent_replays":       prom.delta("serenade_idempotent_replays_total"),
		"serving.padded_ratio":             ratio(prom.delta("serenade_fallback_padded_total"), reqs),
		"serving.cache_hit_ratio":          ratio(cacheHits, cacheHits+prom.delta("serenade_result_cache_misses_total")),
		"serving.batch_mean_size":          ratio(prom.delta("serenade_batcher_batched_requests_total"), prom.delta("serenade_batcher_batches_total")),
		"serving.errors":                   prom.delta("serenade_errors_total"),
		"serving.active_sessions":          prom.gauge("serenade_active_sessions"),

		"serving.http_self_us":           ts.pass[passHandler] - ts.pass[passServer],
		"serving.recommend_self_us":      recommendSelf,
		"serving.handler_allocs_per_req": ts.handlerAllocs,

		"fastjson.decode_us":  ts.layerCall["fastjson.decode"],
		"fastjson.encode_us":  ts.layerCall["fastjson.encode"],
		"fastjson.resp_bytes": ts.respBytes,

		"kvstore.get_us":          ts.layerCall["kvstore.get"],
		"kvstore.put_us":          ts.layerCall["kvstore.put"],
		"kvstore.delete_us":       ts.layerCall["kvstore.delete"],
		"kvstore.gets_per_req":    ratio(prom.delta("serenade_store_gets_total"), reqs),
		"kvstore.puts_per_req":    ratio(prom.delta("serenade_store_puts_total"), reqs),
		"kvstore.deletes_per_req": ratio(prom.delta("serenade_store_deletes_total"), reqs),
		"kvstore.hit_ratio":       ratio(prom.delta("serenade_store_hits_total"), prom.delta("serenade_store_gets_total")),

		"core.candidates_us":      ts.layerCall["core.candidates"],
		"core.score_us":           ts.layerCall["core.score"],
		"core.postings_per_query": postings,
		"core.tail_len_mean":      tailLen,
		"core.neighbors_mean":     ts.neighborsMean,

		"synth.generate_s": sys.times.generate,
		"index.build_s":    sys.times.build,
		"index.save_s":     sys.times.save,
		"index.load_s":     ts.indexLoadS,
		"index.file_mb":    sys.fileMB,
		"index.heap_mb":    ts.indexHeapMB,
		"server.start_s":   sys.times.start,

		"runtime.gc_pause_ms_total":   prom.delta("serenade_go_gc_pause_seconds_total") * 1e3,
		"runtime.gc_cycles":           prom.delta("serenade_go_gc_cycles_total"),
		"runtime.alloc_bytes_per_req": ratio(prom.delta("serenade_go_alloc_bytes_total"), reqs),
		"server.goroutines":           prom.gauge("serenade_go_goroutines"),
		"server.rss_mb":               proc1.rssMB,

		"trace.p1_socket_us":      ts.pass[passSocket],
		"trace.p2_handler_us":     ts.pass[passHandler],
		"trace.p3_recommend_us":   ts.pass[passServer],
		"trace.overhead_ratio":    ratio(ts.tracedP50Us, ts.untracedP50Us),
		"trace.unaccounted_ratio": ratio(recommendSelf, ts.pass[passServer]),
	}
	return rec, nil
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// defsFor names the metrics a run reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name        = flag.String("workload", "", "run this one workload and end with the result line; empty runs all four, traced and untraced")
		seed        = flag.Int64("seed", 1, "seed of the dataset, the hot-item draws and the consent alternation")
		seconds     = flag.Int("seconds", 15, "length of the measured window")
		trace       = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics, 0 the end-to-end ones")
		repeat      = flag.Int("repeat", 1, "without -workload: full runs to make, run i on seed+i; prints medians, quartiles and spread")
		agree       = flag.Bool("agree", false, "compare the two result-set files given as arguments against the bounds of BENCHMARK.json")
		serverFlags = flag.String("server-flags", "", "extra flags for the server child, for ad-hoc on/off grids; recorded in the fingerprint")
		outFile     = flag.String("o", "", "without -workload: where to write the result set (default benchmark/out/results-<seed>.json)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *repeat, *agree, *serverFlags, *outFile, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace, repeat int, agree bool, serverFlags, outFile string, args []string) error {
	if agree {
		if serverFlags != "" {
			return errors.New("-agree compares default-flag runs; it is refused together with -server-flags")
		}
		if len(args) != 2 {
			return errors.New("-agree needs two result-set files")
		}
		return agreeFiles(args[0], args[1])
	}
	if seconds < 1 || (trace != 0 && trace != 1) || repeat < 1 {
		return errors.New("need -seconds >= 1, -trace 0 or 1, -repeat >= 1")
	}
	env, err := newEnvironment(serverFlags)
	if err != nil {
		return err
	}
	defer os.RemoveAll(env.tmp)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := buildServer(ctx, env.root, env.bin); err != nil {
		return err
	}

	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		rec, err := runWorkload(ctx, env, w, seed, seconds, trace == 1)
		if err != nil {
			return err
		}
		defs := defsFor(rec.Traced)
		metrics, err := pack(defs, rec.Metrics)
		if err != nil {
			return err
		}
		fp, _ := json.Marshal(newFingerprint(env, seed, seconds))
		fmt.Printf("fingerprint %s\n", fp)
		printRecord(os.Stdout, rec, defs)
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !rec.Correct {
			return errors.New(strings.Join(rec.problems, "; "))
		}
		return nil
	}

	set := resultSet{Fingerprint: newFingerprint(env, seed, seconds)}
	var problems []string
	for i := 0; i < repeat; i++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				rec, err := runWorkload(ctx, env, w, seed+int64(i), seconds, traced)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				defs := defsFor(traced)
				if _, err := pack(defs, rec.Metrics); err != nil {
					return err
				}
				printRecord(os.Stdout, rec, defs)
				for _, p := range rec.problems {
					problems = append(problems, w.name+": "+p)
				}
				set.Runs = append(set.Runs, *rec)
			}
		}
	}
	printSummary(os.Stdout, set)
	if outFile == "" {
		outFile = env.outPath(fmt.Sprintf("results-%d.json", seed))
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outFile, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("result set written to %s\n", outFile)
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}
