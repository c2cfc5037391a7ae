package streamad

import (
	"testing"

	"streamad/internal/dataset"
	"streamad/internal/metrics"
)

// TestSmokeAllModels runs every model through a small end-to-end detection
// pass and checks that scores are produced and finite.
func TestSmokeAllModels(t *testing.T) {
	corpus := dataset.Daphnet(dataset.Config{Length: 900, SeriesCount: 1, Seed: 42})
	series := corpus.Series[0]
	for _, mk := range []ModelKind{ModelARIMA, ModelPCBIForest, ModelAE, ModelUSAD, ModelNBEATS, ModelVAR, ModelARIMAONS, ModelKNN} {
		mk := mk
		t.Run(mk.String(), func(t *testing.T) {
			det, err := New(Config{
				Model:     mk,
				Task1:     TaskSlidingWindow,
				Task2:     TaskMuSigma,
				Score:     ScoreLikelihood,
				Channels:  series.Channels(),
				Window:    16,
				TrainSize: 60,
				Seed:      7,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			scores, valid := Run(det, series.Data)
			nValid := 0
			for i, ok := range valid {
				if !ok {
					continue
				}
				nValid++
				if scores[i] != scores[i] {
					t.Fatalf("NaN score at %d", i)
				}
			}
			if nValid == 0 {
				t.Fatal("no valid scores produced")
			}
			th := metrics.CalibrateThreshold(scores, valid, 0.3, 0.995)
			sum := metrics.Evaluate(scores, series.Labels, valid, th)
			t.Logf("%s: prec=%.2f rec=%.2f auc=%.3f vus=%.3f nab=%.3f finetunes=%d",
				mk, sum.Precision, sum.Recall, sum.AUC, sum.VUS, sum.NAB, det.FineTunes())
		})
	}
}
