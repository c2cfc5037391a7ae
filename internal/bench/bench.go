// Package bench is the experiment harness of the reproduction: it runs
// the Table III algorithm × corpus grid, the Table II operation-count
// comparison and the Figure 1 fine-tuning experiment, and formats their
// outputs the way the paper reports them.
package bench

import (
	"fmt"
	"io"
	"sort"

	"streamad"
	"streamad/internal/dataset"
	"streamad/internal/metrics"
)

// Profile bundles the run-scale parameters of an experiment sweep.
type Profile struct {
	// Data is the corpus scale.
	Data dataset.Config
	// Window is the data representation length w.
	Window int
	// TrainSize is the training-set capacity m.
	TrainSize int
	// WarmupVectors is the initial-training collection length.
	WarmupVectors int
	// ScoreWindow / ShortWindow parameterize the anomaly scorers.
	ScoreWindow int
	ShortWindow int
	// KSCheckEvery throttles KSWIN testing (1 = paper-faithful).
	KSCheckEvery int
	// CalibFrac / CalibQ parameterize the evaluation threshold calibration.
	CalibFrac float64
	CalibQ    float64
	// Seed drives all detector randomness.
	Seed int64
}

// Fast is the default laptop-scale profile: small windows, short series,
// KSWIN throttled. Suitable for tests and quick benchmark runs.
func Fast() Profile {
	return Profile{
		Data:          dataset.Config{Length: 2000, SeriesCount: 1, Seed: 11},
		Window:        16,
		TrainSize:     100,
		WarmupVectors: 300,
		ScoreWindow:   100,
		ShortWindow:   6,
		KSCheckEvery:  25,
		CalibFrac:     0.3,
		CalibQ:        0.99,
		Seed:          1,
	}
}

// Paper approximates the paper's scale: w=100, warmup 5000 minus window,
// per-step KSWIN testing. Expect long runtimes.
func Paper() Profile {
	return Profile{
		Data:          dataset.PaperConfig(11),
		Window:        100,
		TrainSize:     500,
		WarmupVectors: 4900,
		ScoreWindow:   500,
		ShortWindow:   25,
		KSCheckEvery:  1,
		CalibFrac:     0.25,
		CalibQ:        0.995,
		Seed:          1,
	}
}

// Row is one line of the Table III reproduction: a combo's metrics on one
// corpus, averaged over the two anomaly scores (average / likelihood) and
// over all series of the corpus, exactly as the paper reports.
type Row struct {
	Combo  streamad.Combo
	Corpus string
	metrics.Summary
}

// ScoreRow is one of Table III's last rows: metrics averaged over all
// algorithms for one anomaly-score kind.
type ScoreRow struct {
	Score  streamad.ScoreKind
	Corpus string
	metrics.Summary
}

// RunSeries evaluates one algorithm/score configuration on one series and
// returns the metric summary.
func RunSeries(combo streamad.Combo, sk streamad.ScoreKind, p Profile, s *dataset.Series) (metrics.Summary, error) {
	det, err := streamad.New(streamad.Config{
		Model:         combo.Model,
		Task1:         combo.Task1,
		Task2:         combo.Task2,
		Score:         sk,
		Channels:      s.Channels(),
		Window:        p.Window,
		TrainSize:     p.TrainSize,
		WarmupVectors: p.WarmupVectors,
		ScoreWindow:   p.ScoreWindow,
		ShortWindow:   p.ShortWindow,
		KSCheckEvery:  p.KSCheckEvery,
		Seed:          p.Seed,
	})
	if err != nil {
		return metrics.Summary{}, err
	}
	scores, valid := streamad.Run(det, s.Data)
	th := metrics.QuantileThreshold(scores, valid, p.CalibQ)
	return metrics.Evaluate(scores, s.Labels, valid, th), nil
}

// averageSummaries returns the element-wise mean of the summaries.
func averageSummaries(sums []metrics.Summary) metrics.Summary {
	if len(sums) == 0 {
		return metrics.Summary{}
	}
	var out metrics.Summary
	for _, s := range sums {
		out.Precision += s.Precision
		out.Recall += s.Recall
		out.AUC += s.AUC
		out.VUS += s.VUS
		out.NAB += s.NAB
	}
	n := float64(len(sums))
	out.Precision /= n
	out.Recall /= n
	out.AUC /= n
	out.VUS /= n
	out.NAB /= n
	return out
}

// GridResult is the complete Table III reproduction.
type GridResult struct {
	Rows      []Row
	ScoreRows []ScoreRow
}

// RunGrid runs the given Table I combinations (streamad.Combos() for the
// whole grid) over the given corpora with both anomaly scores and also
// produces the per-score-kind aggregate rows (including the Raw baseline)
// over the combinations run, mirroring Table III. Progress lines go to
// progress when non-nil.
func RunGrid(p Profile, corpora []*dataset.Corpus, combos []streamad.Combo, progress io.Writer) (*GridResult, error) {
	res := &GridResult{}
	scoreAgg := map[string][]metrics.Summary{} // "kind|corpus" → summaries
	for _, corpus := range corpora {
		for _, combo := range combos {
			var perScore []metrics.Summary
			for _, sk := range []streamad.ScoreKind{streamad.ScoreAverage, streamad.ScoreLikelihood, streamad.ScoreRaw} {
				var sums []metrics.Summary
				for _, s := range corpus.Series {
					sum, err := RunSeries(combo, sk, p, s)
					if err != nil {
						return nil, fmt.Errorf("bench: %v on %s: %w", combo, s.Name, err)
					}
					sums = append(sums, sum)
				}
				avg := averageSummaries(sums)
				key := fmt.Sprintf("%s|%s", sk, corpus.Name)
				scoreAgg[key] = append(scoreAgg[key], avg)
				// The per-combo Table III row averages the two windowed
				// scores only (the paper's "average / anomaly likelihood").
				if sk != streamad.ScoreRaw {
					perScore = append(perScore, avg)
				}
			}
			row := Row{Combo: combo, Corpus: corpus.Name, Summary: averageSummaries(perScore)}
			res.Rows = append(res.Rows, row)
			if progress != nil {
				fmt.Fprintf(progress, "done %-28s %-9s prec=%.2f rec=%.2f auc=%.2f vus=%.2f nab=%.2f\n",
					combo, corpus.Name, row.Precision, row.Recall, row.AUC, row.VUS, row.NAB)
			}
		}
	}
	var keys []string
	for k := range scoreAgg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var kind streamad.ScoreKind
		var corpusName string
		for _, sk := range []streamad.ScoreKind{streamad.ScoreAverage, streamad.ScoreLikelihood, streamad.ScoreRaw} {
			prefix := sk.String() + "|"
			if len(k) > len(prefix) && k[:len(prefix)] == prefix {
				kind = sk
				corpusName = k[len(prefix):]
			}
		}
		res.ScoreRows = append(res.ScoreRows, ScoreRow{
			Score:   kind,
			Corpus:  corpusName,
			Summary: averageSummaries(scoreAgg[k]),
		})
	}
	return res, nil
}

// WriteTable formats the grid result the way Table III lays rows out.
func (g *GridResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-14s %-5s %-5s %-9s  %6s %6s %6s %6s %9s\n",
		"Model", "T1", "T2", "Corpus", "Prec", "Rec", "AUC", "VUS", "NAB")
	for _, r := range g.Rows {
		fmt.Fprintf(w, "%-14s %-5s %-5s %-9s  %6.2f %6.2f %6.2f %6.2f %9.2f\n",
			r.Combo.Model, r.Combo.Task1, r.Combo.Task2, r.Corpus,
			r.Precision, r.Recall, r.AUC, r.VUS, r.NAB)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-26s %-9s  %6s %6s %6s %6s %9s\n", "Anomaly score (all algos)", "Corpus", "Prec", "Rec", "AUC", "VUS", "NAB")
	for _, r := range g.ScoreRows {
		fmt.Fprintf(w, "%-26s %-9s  %6.2f %6.2f %6.2f %6.2f %9.2f\n",
			r.Score, r.Corpus, r.Precision, r.Recall, r.AUC, r.VUS, r.NAB)
	}
}
