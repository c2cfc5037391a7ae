package bench

import (
	"bytes"
	"strings"
	"testing"

	"streamad"
	"streamad/internal/dataset"
)

// tinyProfile keeps harness tests fast.
func tinyProfile() Profile {
	return Profile{
		Data:          dataset.Config{Length: 700, SeriesCount: 1, Seed: 3},
		Window:        8,
		TrainSize:     40,
		WarmupVectors: 80,
		ScoreWindow:   40,
		ShortWindow:   4,
		KSCheckEvery:  20,
		CalibFrac:     0.3,
		CalibQ:        0.99,
		Seed:          1,
	}
}

func TestRunSeries(t *testing.T) {
	p := tinyProfile()
	corpus := dataset.Daphnet(p.Data)
	sum, err := RunSeries(
		streamad.Combo{Model: streamad.ModelARIMA, Task1: streamad.TaskSlidingWindow, Task2: streamad.TaskMuSigma},
		streamad.ScoreAverage, p, corpus.Series[0])
	if err != nil {
		t.Fatal(err)
	}
	if sum.Precision < 0 || sum.Precision > 1 || sum.Recall < 0 || sum.Recall > 1 {
		t.Fatalf("summary out of range: %+v", sum)
	}
}

func TestRunGridSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	p := tinyProfile()
	corpora := []*dataset.Corpus{dataset.Daphnet(p.Data)}
	var progress bytes.Buffer
	res, err := RunGrid(p, corpora, streamad.Combos(), &progress)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 26 {
		t.Fatalf("rows = %d, want 26 (one per Table I combo)", len(res.Rows))
	}
	if len(res.ScoreRows) != 3 {
		t.Fatalf("score rows = %d, want 3 (Raw/Avg/AL)", len(res.ScoreRows))
	}
	if !strings.Contains(progress.String(), "done") {
		t.Fatal("progress output missing")
	}
	var table bytes.Buffer
	res.WriteTable(&table)
	out := table.String()
	for _, want := range []string{"Online ARIMA", "PCB-iForest", "USAD", "N-BEATS", "daphnet", "Raw", "Avg", "AL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestOpCountExperiment(t *testing.T) {
	rows := OpCountExperiment(3, 10, 30, 20, 1)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	mu, ks := rows[0], rows[1]
	if mu.Method != "μ/σ-Change" || ks.Method != "KSWIN" {
		t.Fatalf("methods = %q, %q", mu.Method, ks.Method)
	}
	if mu.Measured.Adds == 0 || ks.Measured.Adds == 0 {
		t.Fatal("measured ops missing")
	}
	// The Table II shape: KSWIN dominates μ/σ in every column.
	if ks.Measured.Adds <= mu.Measured.Adds || ks.Measured.Cmps <= mu.Measured.Cmps {
		t.Fatalf("KSWIN (%+v) must dominate μ/σ (%+v)", ks.Measured, mu.Measured)
	}
	if ks.Formula.Adds <= mu.Formula.Adds {
		t.Fatal("paper formulas must show the same ordering")
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows)
	if !strings.Contains(buf.String(), "KSWIN") {
		t.Fatal("WriteTable2 output incomplete")
	}
}

func TestFinetuneExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 run in -short mode")
	}
	p := tinyProfile()
	p.Data.Length = 2000
	res, err := FinetuneExperimentAnySeed(
		Fig1Config{Profile: p, AnomalyStart: 30, AnomalyEnd: 45, Magnitude: 4}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no trace points")
	}
	// The paper's qualitative finding: both models see the anomaly, and the
	// fine-tuned one has the larger baseline-to-peak gap.
	if res.PeakFinetuned <= res.BaseFinetuned {
		t.Fatalf("fine-tuned model shows no anomaly response: %+v", res)
	}
	if res.GapFinetuned <= 0 {
		t.Fatalf("gap must be positive: %+v", res)
	}
	var buf bytes.Buffer
	WriteFig1(&buf, res)
	if !strings.Contains(buf.String(), "finetuned:") || !strings.Contains(buf.String(), "stale:") {
		t.Fatal("WriteFig1 output incomplete")
	}
}

func TestProfiles(t *testing.T) {
	f, p := Fast(), Paper()
	if f.Window >= p.Window || f.TrainSize >= p.TrainSize {
		t.Fatal("fast profile must be smaller than paper profile")
	}
	if p.KSCheckEvery != 1 {
		t.Fatal("paper profile must test KSWIN at every step")
	}
}
