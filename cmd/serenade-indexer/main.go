// Command serenade-indexer runs the offline index generation job: it reads
// a click-log CSV, builds the VMIS-kNN session similarity index with the
// data-parallel batch engine (the paper's daily Spark job), and writes the
// index file consumed by serenade-server.
//
// Usage:
//
//	serenade-indexer -data clicks.csv.gz -out index.srn -capacity 1000
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"serenade/internal/dataflow"
	"serenade/internal/index"
	"serenade/internal/obs"
	"serenade/internal/sessions"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serenade-indexer: ")

	var (
		data     = flag.String("data", "", "input click-log CSV (required)")
		out      = flag.String("out", "index.srn", "output index path")
		capacity = flag.Int("capacity", 1000, "posting-list capacity (max query-time m; 0 = unbounded)")
		workers  = flag.Int("workers", 0, "parallel build workers (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *data == "" {
		log.Fatal("-data is required")
	}

	phases := obs.StartPhases()
	ds, err := sessions.LoadFile(*data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s in %v\n", sessions.ComputeStats(ds), phases.Mark("load").Round(time.Millisecond))

	idx, err := index.Build(dataflow.NewEngine(*workers), sessions.Renumber(ds), *capacity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built index: %d sessions, %d items, ~%.1f MB in memory, in %v\n",
		idx.NumSessions(), idx.NumItems(),
		float64(idx.MemoryFootprint())/(1<<20),
		phases.Mark("build").Round(time.Millisecond))

	if err := index.SaveFile(*out, idx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s in %v\n", *out, phases.Mark("save").Round(time.Millisecond))
	fmt.Printf("phases: %s\n", phases)
}
