// Command table3 regenerates the Table III results grid: every evaluated
// algorithm combination on the three benchmark corpora, reporting
// range-based precision / recall / PR-AUC, VUS and the NAB score, plus
// the per-anomaly-score aggregate rows.
//
// The default -profile=fast runs a scaled-down configuration in minutes;
// -profile=paper approximates the paper's scale (w=100, 5000-step warmup,
// per-step KSWIN) and takes much longer. -corpus and -rows cut the grid
// down for incremental reruns, e.g. the heavy SMD cells:
//
//	table3 -corpus smd -rows 'PCB|N-BEATS|USAD/(SW/KS|URES|ARES)'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"

	"streamad"
	"streamad/internal/bench"
	"streamad/internal/dataset"
)

func main() {
	var (
		profile = flag.String("profile", "fast", "run scale: fast or paper")
		seed    = flag.Int64("seed", 11, "corpus seed")
		verbose = flag.Bool("v", false, "print per-combination progress")
		corpus  = flag.String("corpus", "", "run only this corpus: daphnet, exathlon or smd (default all three)")
		rows    = flag.String("rows", "", `run only the rows whose "Model/T1/T2" label matches this regexp (the per-score rows then aggregate over those)`)
	)
	flag.Parse()
	rowFilter, err := regexp.Compile(*rows)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -rows: %v\n", err)
		os.Exit(2)
	}
	var p bench.Profile
	switch *profile {
	case "fast":
		p = bench.Fast()
	case "paper":
		p = bench.Paper()
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q (want fast or paper)\n", *profile)
		os.Exit(2)
	}
	p.Data.Seed = *seed
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	corpora := slices.DeleteFunc(dataset.All(p.Data), func(c *dataset.Corpus) bool {
		return *corpus != "" && *corpus != c.Name
	})
	combos := slices.DeleteFunc(streamad.Combos(), func(c streamad.Combo) bool {
		return !rowFilter.MatchString(c.String())
	})
	if len(corpora) == 0 || len(combos) == 0 {
		fmt.Fprintf(os.Stderr, "-corpus %q -rows %q select nothing\n", *corpus, *rows)
		os.Exit(2)
	}
	res, err := bench.RunGrid(p, corpora, combos, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Table III — experimental results (profile=%s)\n\n", *profile)
	res.WriteTable(os.Stdout)
}
