// Command serenade-experiments regenerates the paper's evaluation — every
// table and figure, in order — writing the report to stdout. This is the
// one-command reproduction script; -run picks single steps.
//
//	serenade-experiments                        # full-size (minutes)
//	serenade-experiments -quick                 # shrunk datasets (tens of seconds)
//	serenade-experiments -run quality           # §5.1.1 vs GRU4Rec/NARM/STAMP
//	serenade-experiments -run grid -profile rsc15-sim   # Figure 2
//	serenade-experiments -quick -run extensions,micro
//
// Steps: table1, quality, grid, implementations, micro, loadtest, abtest,
// kv, scaling, extensions, complexity.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"serenade/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serenade-experiments: ")

	var (
		quick   = flag.Bool("quick", false, "shrink datasets and sweeps")
		seed    = flag.Int64("seed", 0, "random seed override")
		run     = flag.String("run", "", "comma-separated steps to run, in suite order (empty = all): table1,quality,grid,implementations,micro,loadtest,abtest,kv,scaling,extensions,complexity")
		profile = flag.String("profile", "ecom-1m-sim", "dataset profile for the grid sweep")
	)
	flag.Parse()
	opts := experiments.Options{Quick: *quick, Seed: *seed}

	type step struct {
		name string
		run  func() error
	}
	steps := []step{
		{"table1", func() error {
			rows, err := experiments.Table1(opts)
			if err != nil {
				return err
			}
			experiments.PrintTable1(os.Stdout, rows)
			return nil
		}},
		{"quality", func() error {
			rows, err := experiments.Quality(opts)
			if err != nil {
				return err
			}
			experiments.PrintQuality(os.Stdout, rows)
			return nil
		}},
		{"grid", func() error {
			cells, err := experiments.Grid(*profile, opts)
			if err != nil {
				return err
			}
			experiments.PrintGrid(os.Stdout, *profile, cells)
			return nil
		}},
		{"implementations", func() error {
			rows, err := experiments.ImplComparison(opts)
			if err != nil {
				return err
			}
			experiments.PrintImplComparison(os.Stdout, rows)
			return nil
		}},
		{"micro", func() error {
			rows, err := experiments.Micro(opts)
			if err != nil {
				return err
			}
			experiments.PrintMicro(os.Stdout, rows)
			return nil
		}},
		{"loadtest", func() error {
			dur := 10 * time.Second
			if opts.Quick {
				dur = 2 * time.Second
			}
			res, err := experiments.LoadTest(experiments.LoadTestConfig{RPS: 1000, Duration: dur, Replicas: 2}, opts)
			if err != nil {
				return err
			}
			experiments.PrintLoadTest(os.Stdout, res)
			return nil
		}},
		{"abtest", func() error {
			res, err := experiments.ABTest(opts)
			if err != nil {
				return err
			}
			experiments.PrintABTest(os.Stdout, res)
			return nil
		}},
		{"kv", func() error {
			res, err := experiments.KVBench(opts)
			if err != nil {
				return err
			}
			experiments.PrintKVBench(os.Stdout, res)
			return nil
		}},
		{"scaling", func() error {
			per := 4 * time.Second
			if opts.Quick {
				per = time.Second
			}
			rows, err := experiments.CoreScaling(nil, per, opts)
			if err != nil {
				return err
			}
			experiments.PrintCoreScaling(os.Stdout, rows)
			return nil
		}},
		{"extensions", func() error {
			res, err := experiments.Extensions(opts)
			if err != nil {
				return err
			}
			experiments.PrintExtensions(os.Stdout, res)
			return nil
		}},
		{"complexity", func() error {
			rows, err := experiments.Complexity(opts)
			if err != nil {
				return err
			}
			experiments.PrintComplexity(os.Stdout, rows)
			return nil
		}},
	}

	selected := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		if name = strings.TrimSpace(name); name != "" {
			selected[name] = true
		}
	}
	for name := range selected {
		if !slices.ContainsFunc(steps, func(st step) bool { return st.name == name }) {
			log.Fatalf("unknown step %q in -run", name)
		}
	}

	start := time.Now()
	for _, step := range steps {
		if len(selected) > 0 && !selected[step.name] {
			continue
		}
		fmt.Printf("== %s ==\n", step.name)
		stepStart := time.Now()
		if err := step.run(); err != nil {
			log.Fatalf("%s: %v", step.name, err)
		}
		fmt.Printf("(%s in %v)\n\n", step.name, time.Since(stepStart).Round(time.Millisecond))
	}
	fmt.Printf("all experiments completed in %v\n", time.Since(start).Round(time.Second))
}
