package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the 0.5-quantile of an unsorted sample.
func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first quartile, median and third quartile of an
// unsorted sample.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// relSpread is (max − min)/median, the repeatability figure the noise
// rules are stated in; 0 when the median is 0.
func relSpread(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(med)
}

// tailPercentile returns the highest of the usual tail percentiles that
// still has at least ten samples beyond it, and its value: with fewer
// than ten samples above a percentile its estimate is one or two
// outliers, not a tail. Falls back to the median for tiny samples.
func tailPercentile(sorted []float64) (p float64, value float64) {
	n := len(sorted)
	for _, c := range []float64{0.9999, 0.999, 0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-c) >= 10-1e-9 { // 1-c is not exact in binary
			return c, quantile(sorted, c)
		}
	}
	return 0.5, quantile(sorted, 0.5)
}

// completion is one finished request of the timed phase.
type completion struct {
	doneNs    int64 // completion time, ns since the timed phase started
	latencyNs int64 // closed loop: send → last byte; open loop: due → last byte
	lagNs     int64 // open loop: how late the request left the generator
	records   int32
}

// sliceRates splits the completion-ordered request list into k
// equal-count slices and returns each slice's records per second. A
// slice runs from the completion that ended the previous slice (the
// phase start for the first) to its own last completion, so the slices
// tile the timed phase exactly and one scheduler hiccup lands in one
// slice only.
func sliceRates(done []completion, k int) []float64 {
	if len(done) < k || k <= 0 {
		return nil
	}
	rates := make([]float64, 0, k)
	prevEnd := int64(0)
	for s := 0; s < k; s++ {
		lo, hi := s*len(done)/k, (s+1)*len(done)/k
		var recs int64
		for _, c := range done[lo:hi] {
			recs += int64(c.records)
		}
		end := done[hi-1].doneNs
		if span := end - prevEnd; span > 0 {
			rates = append(rates, float64(recs)/(float64(span)/1e9))
		}
		prevEnd = end
	}
	return rates
}

// detection is a point-adjusted confusion matrix over one or more
// streams.
type detection struct {
	tp, fp, fn, tn int
}

func (d *detection) add(o detection) {
	d.tp += o.tp
	d.fp += o.fp
	d.fn += o.fn
	d.tn += o.tn
}

// recall is TP/(TP+FN); 0 with no true anomalies.
func (d detection) recall() float64 {
	if d.tp+d.fn == 0 {
		return 0
	}
	return float64(d.tp) / float64(d.tp+d.fn)
}

// falseAlarmRate is FP/(FP+TN); 0 with no normal records.
func (d detection) falseAlarmRate() float64 {
	if d.fp+d.tn == 0 {
		return 0
	}
	return float64(d.fp) / float64(d.fp+d.tn)
}

// pointAdjust scores one stream's alert bits against its ground truth
// with tolerance tol (in vectors), the same rule cmd/streamload uses: a
// true anomaly at i is detected if an alert fires in [i, i+tol]; an
// alert on a normal record at j is forgiven if a true anomaly sits in
// [j−tol, j].
func pointAdjust(truth, alert []bool, tol int) detection {
	var d detection
	n := len(truth)
	// nextAlert[i] = smallest j ≥ i with alert[j]; lastTruth likewise backwards.
	nextAlert := make([]int, n+1)
	nextAlert[n] = n + tol + 1
	for i := n - 1; i >= 0; i-- {
		nextAlert[i] = nextAlert[i+1]
		if alert[i] {
			nextAlert[i] = i
		}
	}
	lastTruth := -tol - 1
	for i := 0; i < n; i++ {
		if truth[i] {
			lastTruth = i
			if nextAlert[i] <= i+tol {
				d.tp++
			} else {
				d.fn++
			}
			continue
		}
		if alert[i] && i-lastTruth > tol {
			d.fp++
		} else {
			d.tn++
		}
	}
	return d
}
