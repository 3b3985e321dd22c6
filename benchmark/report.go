package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint says where and how a result set was measured.
type fingerprint struct {
	Nproc               int      `json:"nproc"`
	GeneratorGOMAXPROCS int      `json:"generator_gomaxprocs"`
	ServerGOMAXPROCS    int      `json:"server_gomaxprocs"`
	Connections         int      `json:"connections"`
	GoVersion           string   `json:"go_version"`
	CPUModel            string   `json:"cpu_model"`
	GitCommit           string   `json:"git_commit"`
	Seed                int64    `json:"seed"`
	ServerFlags         []string `json:"server_flags"`
	ExtraServerFlags    []string `json:"extra_server_flags"`
	WindowSeconds       int      `json:"window_seconds"`
	WarmUpSeconds       float64  `json:"warm_up_seconds"`
}

func newFingerprint(env *environment, seed int64, seconds int) fingerprint {
	fp := fingerprint{
		Nproc: env.nproc, GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0), ServerGOMAXPROCS: env.serverProcs,
		Connections: env.conns, GoVersion: runtime.Version(), CPUModel: "unknown", GitCommit: "unknown",
		Seed: seed, ServerFlags: env.childArgs("INDEX"), ExtraServerFlags: env.serverFlags, WindowSeconds: seconds, WarmUpSeconds: warmUp.Seconds(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = env.root
	if out, err := cmd.Output(); err == nil {
		fp.GitCommit = strings.TrimSpace(string(out))
	}
	return fp
}

// resultSet is what a run over all workloads writes and -agree reads.
type resultSet struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []runRecord `json:"runs"`
}

func printRecord(w io.Writer, rec *runRecord, defs []metricDef) {
	kind := "end-to-end"
	if rec.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s\n", rec.Workload, rec.Seed, kind)
	fmt.Fprintf(w, "inputs_sha256 %s\n", rec.InputsSHA256)
	fmt.Fprintf(w, "attempted %d  failed %d  latency samples %d  correct %v\n", rec.Attempted, rec.Failed, rec.Samples, rec.Correct)
	fmt.Fprintf(w, "completions per second %v\n", rec.PerSecond)
	fmt.Fprintf(w, "p50_ms per second %.3f\n", rec.SecP50Ms)
	fmt.Fprintf(w, "p90_ms per second %.3f\n", rec.SecP90Ms)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, rec.Metrics[d.name], d.unit)
	}
	for _, p := range rec.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// quartiles are the three cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), the rule the acceptance check uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// series collects, per workload and metric, the values of every run in the
// set, untraced runs for end-to-end metrics and traced runs for the rest.
func (set resultSet) series(workload string, d metricDef, traced bool) []float64 {
	var out []float64
	for _, r := range set.Runs {
		if r.Workload == workload && r.Traced == traced {
			if v, ok := r.Metrics[d.name]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func printSummary(w io.Writer, set resultSet) {
	fp, _ := json.Marshal(set.Fingerprint)
	fmt.Fprintf(w, "\n== summary\nfingerprint %s\n", fp)
	for _, part := range []struct {
		title  string
		defs   []metricDef
		traced bool
	}{{"end-to-end", endToEnd, false}, {"per-layer", perLayer, true}} {
		fmt.Fprintf(w, "\n%s: median [q1 .. q3] spread=(q3-q1)/median over %d run(s) per workload\n", part.title, len(set.series(workloads[0].name, part.defs[0], part.traced)))
		fmt.Fprintf(w, "%-34s %-6s", "metric", "unit")
		for _, wl := range workloads {
			fmt.Fprintf(w, " %38s", wl.name)
		}
		fmt.Fprintln(w)
		for _, d := range part.defs {
			fmt.Fprintf(w, "%-34s %-6s", d.name, d.unit)
			for _, wl := range workloads {
				v := set.series(wl.name, d, part.traced)
				q1, q2, q3 := quartiles(v)
				if len(v) < 2 {
					fmt.Fprintf(w, " %38.4f", q2)
				} else {
					fmt.Fprintf(w, " %38s", fmt.Sprintf("%.4f [%.4f..%.4f] %4.1f%%", q2, q1, q3, 100*ratio(q3-q1, q2)))
				}
			}
			fmt.Fprintln(w)
		}
	}
	_, closedRPS, _ := quartiles(set.series("replay-closed", endToEnd[2], false))
	_, openP90, _ := quartiles(set.series("replay-open", endToEnd[1], false))
	fmt.Fprintf(w, "\npaper row (section 5.2.2): replay-closed.throughput_rps %.0f against >1,000 req/s; replay-open.p90_ms %.3f against <7 ms\n", closedRPS, openP90)
}

// manifest is the part of BENCHMARK.json the harness reads.
type manifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []manifestMetric             `json:"end_to_end"`
	PerLayer  []manifestMetric             `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(data, &m)
}

// worseBy is the share of base by which got is worse, negative when better.
func worseBy(base, got float64, better string) float64 {
	if better == "higher" {
		return ratio(base-got, base)
	}
	return ratio(got-base, base)
}

// agreeFiles compares the medians of two result sets of one commit: neither
// may be worse than the other by more than the metric's bound.
func agreeFiles(pathA, pathB string) error {
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var sets [2]resultSet
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if extra := sets[i].Fingerprint.ExtraServerFlags; len(extra) > 0 {
			return fmt.Errorf("%s was measured with -server-flags %v; -agree compares default-flag runs", p, extra)
		}
	}
	outside := 0
	for _, wl := range workloads {
		for _, mm := range m.EndToEnd {
			d := metricDef{mm.Name, mm.Unit, mm.Better}
			_, a, _ := quartiles(sets[0].series(wl.name, d, false))
			_, b, _ := quartiles(sets[1].series(wl.name, d, false))
			gap := max(worseBy(a, b, mm.Better), worseBy(b, a, mm.Better))
			verdict := "ok"
			if gap > mm.Bound {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Printf("%-18s %-16s %12.4f %12.4f  gap %6.2f%%  bound %5.1f%%  %s\n", wl.name, mm.Name, a, b, 100*gap, 100*mm.Bound, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d metric(s) outside their bounds", outside)
	}
	return nil
}
