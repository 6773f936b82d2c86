// Command nfbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	nfbench [-quick] [-batches N] [-batchsize N] [-seed N] [-format table|csv] all|<experiment>...
//
// Experiments: ablation algos fig5 fig6 fig7 fig8a fig8d fig8e fig14 fig15
// fig17 micro scaling. Each prints the rows/series of the corresponding
// paper artifact (see DESIGN.md §4 for the experiment index). Live-plane
// performance is not measured here: that is the repo benchmark
// (benchmarks/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nfcompass/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	batches := flag.Int("batches", 0, "batches per measurement (0 = default)")
	batchSize := flag.Int("batchsize", 0, "packets per batch (0 = default)")
	seed := flag.Int64("seed", 1, "traffic seed")
	format := flag.String("format", "table", "output format: table|csv")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nfbench [flags] all|experiment...\n")
		fmt.Fprintf(os.Stderr, "experiments: %v\n", bench.IDs())
		flag.PrintDefaults()
	}
	flag.Parse()
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "nfbench: unknown -format %q (want table|csv)\n", *format)
		os.Exit(2)
	}

	ids := flag.Args()
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = bench.IDs()
	}

	cfg := bench.DefaultConfig()
	cfg.Quick = *quick
	cfg.Seed = *seed
	if *batches > 0 {
		cfg.Batches = *batches
	}
	if *batchSize > 0 {
		cfg.BatchSize = *batchSize
	}

	for _, id := range ids {
		start := time.Now()
		tbl, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *format == "csv" {
			fmt.Print(tbl.CSV())
		} else {
			fmt.Print(tbl.Format())
			fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
	}
}
