// Command streamad runs a streaming anomaly detector over a CSV time
// series (one column per channel, optional trailing "label" column) and
// writes per-step anomaly scores. With labels present it also reports the
// evaluation metrics.
//
// Usage:
//
//	streamad -model usad -task1 sw -task2 musigma -score likelihood data.csv
//	streamad -spec 'ensemble(arima+sw+kswin, usad+ares+regular; agg=median)' data.csv
//	streamad -gen daphnet -out stream.csv        # generate a demo corpus file
package main

import (
	"flag"
	"fmt"
	"os"

	"streamad"
	"streamad/internal/core"
	"streamad/internal/dataset"
	"streamad/internal/metrics"
)

func main() {
	var (
		spec      = streamad.SpecFlags(flag.CommandLine)
		window    = flag.Int("w", 32, "data representation length")
		train     = flag.Int("m", 200, "training set size")
		warmup    = flag.Int("warmup", 0, "warmup feature vectors (default m)")
		seed      = flag.Int64("seed", 1, "random seed")
		threshold = flag.Float64("threshold", 0, "decision threshold (0 = calibrate from stream)")
		gen       = flag.String("gen", "", "generate a corpus CSV instead: daphnet|exathlon|smd")
		out       = flag.String("out", "", "output file for -gen (default stdout)")
		quiet     = flag.Bool("q", false, "suppress per-step score output")
	)
	flag.Parse()

	if *gen != "" {
		if err := generate(*gen, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: streamad [flags] data.csv  (or -gen corpus)")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), spec(), *window, *train, *warmup, *seed, *threshold, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func generate(corpus, out string) error {
	var c *dataset.Corpus
	cfg := dataset.FastConfig(11)
	cfg.SeriesCount = 1
	switch corpus {
	case "daphnet":
		c = dataset.Daphnet(cfg)
	case "exathlon":
		c = dataset.Exathlon(cfg)
	case "smd":
		c = dataset.SMD(cfg)
	default:
		return fmt.Errorf("unknown corpus %q (want daphnet, exathlon or smd)", corpus)
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return dataset.WriteCSV(w, c.Series[0])
}

func run(path, spec string, window, train, warmup int, seed int64, threshold float64, quiet bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	series, err := dataset.ReadCSV(f, path)
	if err != nil {
		return err
	}
	det, err := streamad.NewFromSpec(spec, streamad.Config{
		Channels: series.Channels(), Window: window, TrainSize: train,
		WarmupVectors: warmup, Seed: seed,
	})
	if err != nil {
		return err
	}
	if c, ok := det.(core.Closer); ok {
		defer c.Close()
	}
	scores, valid := streamad.Run(det, series.Data)
	if threshold == 0 {
		threshold = metrics.CalibrateThreshold(scores, valid, 0.3, 0.99)
		fmt.Fprintf(os.Stderr, "calibrated threshold: %.5f\n", threshold)
	}
	if !quiet {
		fmt.Println("t\tscore\tanomaly")
		for t := range scores {
			if !valid[t] {
				continue
			}
			flag := 0
			if scores[t] >= threshold {
				flag = 1
			}
			fmt.Printf("%d\t%.5f\t%d\n", t, scores[t], flag)
		}
	}
	hasLabels := false
	for _, l := range series.Labels {
		if l {
			hasLabels = true
			break
		}
	}
	if hasLabels {
		sum := metrics.Evaluate(scores, series.Labels, valid, threshold)
		fmt.Fprintf(os.Stderr, "precision=%.3f recall=%.3f pr-auc=%.3f vus=%.3f nab=%.3f finetunes=%d\n",
			sum.Precision, sum.Recall, sum.AUC, sum.VUS, sum.NAB, det.FineTunes())
	}
	return nil
}
