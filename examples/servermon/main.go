// Server-machine monitoring — an SMD-style scenario. The example streams
// the synthetic SMD corpus (38 correlated server metrics with spikes and
// correlated outages) through two detectors, one with the sliding-window
// strategy and one with the anomaly-aware reservoir, and compares their
// evaluation metrics — reproducing in miniature the paper's finding that
// ARES often improves on SW.
//
// Run with:
//
//	go run ./examples/servermon
package main

import (
	"fmt"
	"log"

	"streamad"
	"streamad/internal/dataset"
	"streamad/internal/metrics"
)

func main() {
	corpus := dataset.SMD(dataset.Config{Length: 2400, SeriesCount: 1, Seed: 21})
	series := corpus.Series[0]
	fmt.Printf("server stream: %d steps × %d metrics, %.1f%% anomalous\n\n",
		series.Len(), series.Channels(), 100*series.AnomalyRate())

	for _, task1 := range []streamad.Task1{streamad.TaskSlidingWindow, streamad.TaskAnomalyReservoir} {
		det, err := streamad.New(streamad.Config{
			Model:         streamad.ModelUSAD,
			Task1:         task1,
			Task2:         streamad.TaskMuSigma,
			Score:         streamad.ScoreLikelihood,
			Channels:      series.Channels(),
			Window:        24,
			TrainSize:     150,
			WarmupVectors: 400,
			ScoreWindow:   120,
			ShortWindow:   6,
			Seed:          5,
		})
		if err != nil {
			log.Fatal(err)
		}
		scores, valid := streamad.Run(det, series.Data)
		th := metrics.QuantileThreshold(scores, valid, 0.98)
		sum := metrics.Evaluate(scores, series.Labels, valid, th)
		fmt.Printf("%-5s precision=%.2f recall=%.2f pr-auc=%.3f vus=%.3f nab=%7.2f fine-tunes=%d\n",
			task1, sum.Precision, sum.Recall, sum.AUC, sum.VUS, sum.NAB, det.FineTunes())
	}
}
