// Wearable-sensor freeze-of-gait detection — a Daphnet-style scenario.
// Nine accelerometer channels stream through an online-ARIMA detector and
// a USAD detector. Freeze episodes — collapsed gait oscillation with an
// irregular tremor — are "inlier-like" anomalies: their values stay inside
// the normal range, so the forecasting model (which is surprised by the
// changed dynamics) tends to catch them at onset, while the reconstruction
// model may reconstruct the simple frozen signal all too well. The example
// prints each detector's flagged intervals next to the labelled episodes,
// the interval-style output a clinician-facing system would show.
//
// Run with:
//
//	go run ./examples/gaitfreeze
package main

import (
	"fmt"
	"log"

	"streamad"
	"streamad/internal/dataset"
	"streamad/internal/metrics"
)

func main() {
	corpus := dataset.Daphnet(dataset.Config{Length: 2400, SeriesCount: 1, Seed: 31})
	series := corpus.Series[0]
	episodes := metrics.Ranges(series.Labels)
	fmt.Printf("gait stream: %d steps × %d accelerometer channels\n", series.Len(), series.Channels())
	fmt.Printf("labelled freeze episodes: ")
	for _, e := range episodes {
		fmt.Printf("[%d,%d] ", e.Start, e.End)
	}
	fmt.Println()

	for _, mk := range []streamad.ModelKind{streamad.ModelARIMA, streamad.ModelUSAD} {
		det, err := streamad.New(streamad.Config{
			Model:         mk,
			Task1:         streamad.TaskSlidingWindow,
			Task2:         streamad.TaskMuSigma,
			Score:         streamad.ScoreAverage,
			Channels:      series.Channels(),
			Window:        24,
			TrainSize:     150,
			WarmupVectors: 400,
			ScoreWindow:   60,
			Seed:          9,
		})
		if err != nil {
			log.Fatal(err)
		}
		scores, valid := streamad.Run(det, series.Data)
		th := metrics.QuantileThreshold(scores, valid, 0.99)
		pred := metrics.Binarize(scores, valid, th)
		intervals := metrics.Ranges(pred)
		sum := metrics.Evaluate(scores, series.Labels, valid, th)

		fmt.Printf("\n%s flagged intervals: ", mk)
		for i, r := range intervals {
			if i >= 10 {
				fmt.Printf("… (%d more)", len(intervals)-10)
				break
			}
			fmt.Printf("[%d,%d] ", r.Start, r.End)
		}
		fmt.Printf("\n%s recall=%.2f precision=%.2f pr-auc=%.3f\n",
			mk, sum.Recall, sum.Precision, sum.AUC)
	}
}
