// Command serenade-eval runs the offline quality experiments:
//
//	serenade-eval -experiment quality          # §5.1.1 model comparison
//	serenade-eval -experiment grid             # Figure 2 hyperparameter sweep
//	serenade-eval -experiment grid -profile rsc15-sim
//
// Add -quick for shrunk datasets.
package main

import (
	"flag"
	"log"
	"os"

	"serenade/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serenade-eval: ")

	var (
		experiment = flag.String("experiment", "quality", "experiment to run: quality | grid")
		profile    = flag.String("profile", "ecom-1m-sim", "dataset profile for the grid sweep")
		quick      = flag.Bool("quick", false, "shrink datasets and sweeps")
		seed       = flag.Int64("seed", 0, "random seed override")
	)
	flag.Parse()
	opts := experiments.Options{Quick: *quick, Seed: *seed}

	switch *experiment {
	case "quality":
		rows, err := experiments.Quality(opts)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintQuality(os.Stdout, rows)
	case "grid":
		cells, err := experiments.Grid(*profile, opts)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintGrid(os.Stdout, *profile, cells)
	default:
		log.Fatalf("unknown experiment %q (want quality or grid)", *experiment)
	}
}
