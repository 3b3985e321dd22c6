// Command serenade-bench runs the systems microbenchmarks of §5:
//
//	serenade-bench -experiment implementations   # Figure 3(a) top
//	serenade-bench -experiment micro             # Figure 3(a) bottom
//	serenade-bench -experiment kv                # §4.2 session store
//	serenade-bench -experiment extensions        # §7 future-work ablations
//	serenade-bench -experiment complexity        # §3 time-complexity sweeps
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
	log.SetPrefix("serenade-bench: ")

	var (
		experiment = flag.String("experiment", "micro", "experiment: implementations | micro | kv | extensions | complexity")
		quick      = flag.Bool("quick", false, "shrink datasets")
		seed       = flag.Int64("seed", 0, "random seed override")
	)
	flag.Parse()
	opts := experiments.Options{Quick: *quick, Seed: *seed}

	switch *experiment {
	case "implementations":
		rows, err := experiments.ImplComparison(opts)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintImplComparison(os.Stdout, rows)
	case "micro":
		rows, err := experiments.Micro(opts)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintMicro(os.Stdout, rows)
	case "kv":
		res, err := experiments.KVBench(opts)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintKVBench(os.Stdout, res)
	case "extensions":
		res, err := experiments.Extensions(opts)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintExtensions(os.Stdout, res)
	case "complexity":
		rows, err := experiments.Complexity(opts)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintComplexity(os.Stdout, rows)
	default:
		log.Fatalf("unknown experiment %q (want implementations, micro, kv, extensions or complexity)", *experiment)
	}
}
