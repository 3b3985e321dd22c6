package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"serenade/internal/cluster"
	"serenade/internal/core"
	"serenade/internal/loadgen"
	"serenade/internal/obs"
	"serenade/internal/obs/slo"
	"serenade/internal/serving"
)

// LoadTestConfig parameterises the Figure 3(b) load test.
type LoadTestConfig struct {
	// RPS is the target request rate (the paper sustains >1000).
	RPS int
	// Duration is the test length per rate.
	Duration time.Duration
	// Replicas is the number of stateful serving pods (the paper uses 2).
	Replicas int
	// SLOLatencyP99 sets the replicas' latency objective: requests slower
	// than this burn error budget (0 = objective disabled).
	SLOLatencyP99 time.Duration
	// SLOErrorBudget is the fraction of requests allowed to fail
	// (0 = error-rate objective disabled).
	SLOErrorBudget float64
}

// ReplicaStats is one replica's serving counters after a load test.
type ReplicaStats struct {
	Name string
	serving.Stats
}

// ReplicaSLO is one replica's post-test SLO burn picture paired with its
// overload telemetry snapshot.
type ReplicaSLO struct {
	Name   string
	State  slo.EndpointState
	Health obs.HealthSignal
}

// LoadTestResult bundles the load generator's time series with the
// per-replica serving breakdown (requests, errors, per-stage latency) the
// paper's Grafana dashboards show per pod.
type LoadTestResult struct {
	*loadgen.Result
	Replicas []ReplicaStats
	// SLO holds the burn state per replica; empty unless an objective was
	// configured (SLOLatencyP99 or SLOErrorBudget).
	SLO []ReplicaSLO
}

// LoadTest reproduces §5.2.2 / Figure 3(b): replay historical traffic at a
// target rate against a pool of stateful replicas behind sticky routing and
// record per-second request counts, latency percentiles and core usage.
func LoadTest(cfg LoadTestConfig, opts Options) (*LoadTestResult, error) {
	if cfg.RPS <= 0 {
		cfg.RPS = 1000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	profile := "ecom-60m-sim"
	if opts.Quick {
		profile = "retailrocket-sim"
	}
	train, test, err := prepProfile(profile, opts)
	if err != nil {
		return nil, err
	}
	idx, err := core.BuildIndex(train, 500)
	if err != nil {
		return nil, err
	}
	pool, err := cluster.NewPool(idx, serving.Config{
		Params:              core.Params{M: 500, K: 100},
		SLOLatencyThreshold: cfg.SLOLatencyP99,
		SLOErrorBudget:      cfg.SLOErrorBudget,
	}, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	workload := loadgen.Workload(test, 0)
	if len(workload) == 0 {
		return nil, fmt.Errorf("experiments: empty replay workload")
	}
	res, err := loadgen.Run(loadgen.Config{
		TargetRPS: cfg.RPS,
		Duration:  cfg.Duration,
	}, func(i uint64) error {
		_, err := pool.Recommend(workload[i%uint64(len(workload))])
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &LoadTestResult{Result: res}
	for name, st := range pool.Stats() {
		out.Replicas = append(out.Replicas, ReplicaStats{Name: name, Stats: st})
	}
	sort.Slice(out.Replicas, func(i, j int) bool { return out.Replicas[i].Name < out.Replicas[j].Name })
	if cfg.SLOLatencyP99 > 0 || cfg.SLOErrorBudget > 0 {
		out.SLO = snapshotSLO(pool)
	}
	return out, nil
}

// snapshotSLO pairs each replica's SLO endpoint state with its overload
// telemetry, sorted by name.
func snapshotSLO(pool *cluster.Pool) []ReplicaSLO {
	health := pool.Health()
	var out []ReplicaSLO
	for _, name := range pool.Replicas() {
		srv, ok := pool.Replica(name)
		if !ok {
			continue
		}
		st, ok := srv.SLO().Endpoint("recommend")
		if !ok {
			continue
		}
		out = append(out, ReplicaSLO{Name: name, State: st, Health: health[name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PrintLoadTest renders the per-bucket series, the overall percentiles, and
// the per-replica stage breakdown.
func PrintLoadTest(w io.Writer, res *LoadTestResult) {
	fmt.Fprintln(w, "Figure 3(b): load test (requests/s, latency percentiles, core usage)")
	header := []string{"t (s)", "req/s", "p75", "p90", "p99.5", "cores"}
	var cells [][]string
	for _, p := range res.Points {
		cells = append(cells, []string{
			fmt.Sprintf("%.0f", p.Offset.Seconds()),
			fmt.Sprintf("%d", p.Requests),
			p.P75.Round(time.Microsecond).String(),
			p.P90.Round(time.Microsecond).String(),
			p.P995.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2f", p.Cores),
		})
	}
	printTable(w, header, cells)
	fmt.Fprintf(w, "overall: sent=%d errors=%d achieved=%.0f req/s  %s\n",
		res.Sent, res.Errors, res.AchievedRPS, res.Total.Summary())
	// The GC line reads against the edge's allocation budget: allocs/req is
	// process-wide (generator bookkeeping included), so watch the trend, not
	// the absolute — a pooling regression moves it by whole allocations.
	fmt.Fprintf(w, "gc: pause=%s cycles=%d allocs/req=%.1f alloc-bytes/req=%.0f\n",
		res.GCPause.Round(time.Microsecond), res.GCCycles, res.AllocsPerRequest, res.AllocBytesPerReq)

	if len(res.Replicas) == 0 {
		return
	}
	// Stage sets may differ between replicas (a stage with zero samples is
	// omitted from Stats), so build the union of stage names for the header
	// and index each replica's stages by name.
	var stageNames []string
	seen := map[string]bool{}
	for _, rep := range res.Replicas {
		for _, sg := range rep.Stages {
			if !seen[sg.Stage] {
				seen[sg.Stage] = true
				stageNames = append(stageNames, sg.Stage)
			}
		}
	}
	fmt.Fprintln(w, "\nper-replica stage breakdown (p90)")
	rheader := append([]string{"replica", "requests", "errors", "p90"}, stageNames...)
	var rcells [][]string
	for _, rep := range res.Replicas {
		byName := map[string]serving.StageStats{}
		for _, sg := range rep.Stages {
			byName[sg.Stage] = sg
		}
		row := []string{
			rep.Name,
			fmt.Sprintf("%d", rep.Requests),
			fmt.Sprintf("%d", rep.Errors),
			rep.P90Latency.Round(time.Microsecond).String(),
		}
		for _, name := range stageNames {
			if sg, ok := byName[name]; ok {
				row = append(row, sg.P90Latency.Round(time.Microsecond).String())
			} else {
				row = append(row, "-")
			}
		}
		rcells = append(rcells, row)
	}
	printTable(w, rheader, rcells)
	printBurnTable(w, res.SLO)
}

// printBurnTable renders each replica's burn rate against the load it
// absorbed — the "is this rate sustainable against the objective" view.
func printBurnTable(w io.Writer, rows []ReplicaSLO) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\nSLO burn rate vs load (objective: %s)\n", rows[0].State.Objective)
	header := []string{"replica", "requests", "burn 1m", "burn 5m", "burn 1h", "fast", "slow", "budget left", "inflight"}
	var cells [][]string
	for _, rep := range rows {
		row := []string{rep.Name}
		if len(rep.State.Windows) > 0 {
			row = append(row, fmt.Sprintf("%d", rep.State.Windows[0].Total))
		} else {
			row = append(row, "-")
		}
		for _, win := range rep.State.Windows {
			row = append(row, fmt.Sprintf("%.2f", max(win.LatencyBurnRate, win.ErrorBurnRate)))
		}
		for len(row) < 5 {
			row = append(row, "-")
		}
		row = append(row,
			fmt.Sprintf("%v", rep.State.FastBurn),
			fmt.Sprintf("%v", rep.State.SlowBurn),
			fmt.Sprintf("%.0f%%", 100*rep.State.BudgetRemaining),
			fmt.Sprintf("%d", rep.Health.InFlight),
		)
		cells = append(cells, row)
	}
	printTable(w, header, cells)
}

// CoreScalingRow is one rate's core usage (§5.2.3 / §7 cost discussion).
type CoreScalingRow struct {
	RPS         int
	AchievedRPS float64
	Cores       float64
	P90         time.Duration
}

// CoreScaling sweeps request rates and reports average core usage,
// reproducing the "well-behaved linear scaling (with a gentle slope) of the
// core usage with the number of requests per second" observation.
func CoreScaling(rates []int, perRate time.Duration, opts Options) ([]CoreScalingRow, error) {
	if len(rates) == 0 {
		rates = []int{100, 200, 400, 600}
	}
	if perRate <= 0 {
		perRate = 5 * time.Second
	}
	train, test, err := prepProfile("retailrocket-sim", opts)
	if err != nil {
		return nil, err
	}
	idx, err := core.BuildIndex(train, 500)
	if err != nil {
		return nil, err
	}
	pool, err := cluster.NewPool(idx, serving.Config{Params: core.Params{M: 500, K: 100}}, 2)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	workload := loadgen.Workload(test, 0)

	var rows []CoreScalingRow
	for _, rps := range rates {
		res, err := loadgen.Run(loadgen.Config{TargetRPS: rps, Duration: perRate}, func(i uint64) error {
			_, err := pool.Recommend(workload[i%uint64(len(workload))])
			return err
		})
		if err != nil {
			return nil, err
		}
		avgCores := 0.0
		if len(res.Points) > 0 {
			for _, p := range res.Points {
				avgCores += p.Cores
			}
			avgCores /= float64(len(res.Points))
		}
		rows = append(rows, CoreScalingRow{
			RPS:         rps,
			AchievedRPS: res.AchievedRPS,
			Cores:       avgCores,
			P90:         res.Total.Percentile(90),
		})
	}
	return rows, nil
}

// SLOSweepRow is one target rate's burn picture: a point on the
// burn-rate-vs-RPS trajectory that locates the knee where the deployment
// stops meeting its objective. The JSON tags shape the BENCH_slo.json
// artifact (via the benchjson BENCHJSON passthrough).
type SLOSweepRow struct {
	RPS             int     `json:"rps"`
	AchievedRPS     float64 `json:"achieved_rps"`
	P995Micros      float64 `json:"p995_us"`
	Errors          uint64  `json:"errors"`
	BurnRate        float64 `json:"burn_rate"`
	FastBurn        bool    `json:"fast_burn"`
	SlowBurn        bool    `json:"slow_burn"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

// SLOSweep drives the replay workload at increasing target rates and records
// the worst replica burn at each: the trajectory an operator reads to find
// the highest sustainable rate under the objective. Each rate gets a fresh
// pool so one rate's burn windows cannot contaminate the next measurement.
func SLOSweep(rates []int, perRate time.Duration, cfg LoadTestConfig, opts Options) ([]SLOSweepRow, error) {
	if len(rates) == 0 {
		rates = []int{200, 400, 800, 1600}
	}
	if perRate <= 0 {
		perRate = 5 * time.Second
	}
	if cfg.SLOLatencyP99 <= 0 {
		cfg.SLOLatencyP99 = 5 * time.Millisecond
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	profile := "ecom-60m-sim"
	if opts.Quick {
		profile = "retailrocket-sim"
	}
	train, test, err := prepProfile(profile, opts)
	if err != nil {
		return nil, err
	}
	idx, err := core.BuildIndex(train, 500)
	if err != nil {
		return nil, err
	}
	workload := loadgen.Workload(test, 0)
	if len(workload) == 0 {
		return nil, fmt.Errorf("experiments: empty replay workload")
	}

	var rows []SLOSweepRow
	for _, rps := range rates {
		pool, err := cluster.NewPool(idx, serving.Config{
			Params:              core.Params{M: 500, K: 100},
			SLOLatencyThreshold: cfg.SLOLatencyP99,
			SLOErrorBudget:      cfg.SLOErrorBudget,
		}, cfg.Replicas)
		if err != nil {
			return nil, err
		}
		res, err := loadgen.Run(loadgen.Config{TargetRPS: rps, Duration: perRate}, func(i uint64) error {
			_, err := pool.Recommend(workload[i%uint64(len(workload))])
			return err
		})
		if err != nil {
			pool.Close()
			return nil, err
		}
		row := SLOSweepRow{
			RPS:             rps,
			AchievedRPS:     res.AchievedRPS,
			P995Micros:      float64(res.Total.Percentile(99.5)) / float64(time.Microsecond),
			Errors:          res.Errors,
			BudgetRemaining: 1,
		}
		for _, rep := range snapshotSLO(pool) {
			row.BurnRate = max(row.BurnRate, rep.Health.BurnRate)
			row.FastBurn = row.FastBurn || rep.State.FastBurn
			row.SlowBurn = row.SlowBurn || rep.State.SlowBurn
			row.BudgetRemaining = min(row.BudgetRemaining, rep.State.BudgetRemaining)
		}
		rows = append(rows, row)
		pool.Close()
	}
	return rows, nil
}

// PrintSLOSweep renders the burn-rate-vs-RPS trajectory.
func PrintSLOSweep(w io.Writer, rows []SLOSweepRow) {
	fmt.Fprintln(w, "SLO burn rate vs request rate (worst replica per rate)")
	header := []string{"target req/s", "achieved", "p99.5", "errors", "burn rate", "fast", "slow", "budget left"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.RPS),
			fmt.Sprintf("%.0f", r.AchievedRPS),
			(time.Duration(r.P995Micros) * time.Microsecond).String(),
			fmt.Sprintf("%d", r.Errors),
			fmt.Sprintf("%.2f", r.BurnRate),
			fmt.Sprintf("%v", r.FastBurn),
			fmt.Sprintf("%v", r.SlowBurn),
			fmt.Sprintf("%.0f%%", 100*r.BudgetRemaining),
		})
	}
	printTable(w, header, cells)
}

// PrintCoreScaling renders the sweep.
func PrintCoreScaling(w io.Writer, rows []CoreScalingRow) {
	fmt.Fprintln(w, "§5.2.3/§7: core usage vs request rate")
	header := []string{"target req/s", "achieved", "avg cores", "p90 latency"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.RPS),
			fmt.Sprintf("%.0f", r.AchievedRPS),
			fmt.Sprintf("%.2f", r.Cores),
			r.P90.Round(time.Microsecond).String(),
		})
	}
	printTable(w, header, cells)
}
