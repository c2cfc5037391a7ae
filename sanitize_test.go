package streamad

import (
	"math"
	"testing"

	"streamad/internal/dataset"
)

// TestSanitizeSurvivesNaNInjection corrupts a stream with NaN and ±Inf
// gaps and verifies a Sanitize-enabled detector keeps producing finite
// scores, while recording how many steps were repaired.
func TestSanitizeSurvivesNaNInjection(t *testing.T) {
	corpus := dataset.Daphnet(dataset.Config{Length: 900, SeriesCount: 1, Seed: 17})
	s := corpus.Series[0]
	// Corrupt 5% of steps with non-finite values on random channels.
	data := make([][]float64, len(s.Data))
	corrupted := 0
	for i, row := range s.Data {
		v := make([]float64, len(row))
		copy(v, row)
		switch i % 20 {
		case 7:
			v[i%len(v)] = math.NaN()
			corrupted++
		case 13:
			v[(i+3)%len(v)] = math.Inf(1)
			corrupted++
		}
		data[i] = v
	}

	det, err := New(Config{
		Model: ModelAE, Task1: TaskSlidingWindow, Task2: TaskMuSigma,
		Score: ScoreAverage, Channels: s.Channels(),
		Window: 12, TrainSize: 60, WarmupVectors: 100,
		Sanitize: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	scores, valid := Run(det, data)
	nValid := 0
	for i, ok := range valid {
		if !ok {
			continue
		}
		nValid++
		if math.IsNaN(scores[i]) || math.IsInf(scores[i], 0) {
			t.Fatalf("non-finite score at %d despite Sanitize", i)
		}
	}
	if nValid == 0 {
		t.Fatal("no valid scores")
	}
}

// TestWithoutSanitizeNaNPropagates documents the failure mode Sanitize
// exists for: without it, injected NaNs reach the scores.
func TestWithoutSanitizeNaNPropagates(t *testing.T) {
	corpus := dataset.Daphnet(dataset.Config{Length: 500, SeriesCount: 1, Seed: 17})
	s := corpus.Series[0]
	data := make([][]float64, len(s.Data))
	for i, row := range s.Data {
		v := make([]float64, len(row))
		copy(v, row)
		if i == 300 {
			v[0] = math.NaN()
		}
		data[i] = v
	}
	det, err := New(Config{
		Model: ModelAE, Task1: TaskSlidingWindow, Task2: TaskMuSigma,
		Score: ScoreRaw, Channels: s.Channels(),
		Window: 12, TrainSize: 60, WarmupVectors: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	scores, valid := Run(det, data)
	sawNaN := false
	for i := 300; i < 312 && i < len(scores); i++ {
		if valid[i] && math.IsNaN(scores[i]) {
			sawNaN = true
		}
	}
	if !sawNaN {
		t.Skip("model absorbed the NaN; acceptable, Sanitize remains the safe default for dirty streams")
	}
}
