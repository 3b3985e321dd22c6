package experiments

import (
	"fmt"
	"io"
	"time"

	"serenade/internal/core"
	"serenade/internal/sessions"
	"serenade/internal/vsknn"
)

// MicroRow is one (m, variant) timing of the Figure 3(a) bottom
// microbenchmark.
type MicroRow struct {
	M       int
	Variant string
	Median  time.Duration
	P90     time.Duration
}

// Micro reproduces §5.1.3 / Figure 3(a) bottom: computing the k=100 closest
// sessions on ecom-1m with VS-kNN (hashmap two-phase baseline),
// VMIS-kNN-no-opt (Algorithm 2's walk on binary heaps, no early stopping:
// the map-based core.ReferenceRecommender) and VMIS-kNN (the kernel), for
// m ∈ {100, 250, 500, 1000}.
func Micro(opts Options) ([]MicroRow, error) {
	train, test, err := prepProfile("ecom-1m-sim", opts)
	if err != nil {
		return nil, err
	}
	ms := []int{100, 250, 500, 1000}
	maxSessions := 120
	if opts.Quick {
		ms = []int{100, 500}
		maxSessions = 25
	}
	queries := queryPrefixes(test, maxSessions)

	idx, err := core.BuildIndex(train, 0)
	if err != nil {
		return nil, err
	}
	baseline := vsknn.New(train)

	var rows []MicroRow
	const k = 100
	for _, m := range ms {
		p := core.Params{M: m, K: k}

		vsTimes := timeQueries(func(q []sessions.ItemID) { baseline.NeighborSessions(q, p) }, queries)
		rows = append(rows, MicroRow{M: m, Variant: "VS-kNN",
			Median: durationPercentile(vsTimes, 0.5), P90: durationPercentile(vsTimes, 0.9)})

		noopt, err := core.NewReferenceRecommender(idx, core.Params{M: m, K: k, HeapArity: 2, DisableEarlyStopping: true})
		if err != nil {
			return nil, err
		}
		nooptTimes := timeQueries(func(q []sessions.ItemID) { noopt.NeighborSessions(q) }, queries)
		rows = append(rows, MicroRow{M: m, Variant: "VMIS-kNN-no-opt",
			Median: durationPercentile(nooptTimes, 0.5), P90: durationPercentile(nooptTimes, 0.9)})

		opt, err := core.NewRecommender(idx, p)
		if err != nil {
			return nil, err
		}
		optTimes := timeQueries(func(q []sessions.ItemID) { opt.NeighborSessions(q) }, queries)
		rows = append(rows, MicroRow{M: m, Variant: "VMIS-kNN",
			Median: durationPercentile(optTimes, 0.5), P90: durationPercentile(optTimes, 0.9)})
	}
	return rows, nil
}

// PrintMicro renders the microbenchmark table.
func PrintMicro(w io.Writer, rows []MicroRow) {
	fmt.Fprintln(w, "Figure 3(a) bottom: k-closest-sessions time, VS-kNN vs VMIS variants (k=100)")
	header := []string{"m", "variant", "median (µs)", "p90 (µs)"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.M), r.Variant,
			fmt.Sprintf("%.1f", micros(r.Median)),
			fmt.Sprintf("%.1f", micros(r.P90)),
		})
	}
	printTable(w, header, cells)
}
