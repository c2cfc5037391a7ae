// Package metrics implements the paper's three families of evaluation
// measures for time-series anomaly detection:
//
//   - Range-based precision / recall and their PR-AUC, following Hundman
//     et al.: any positive prediction inside a true anomaly sequence makes
//     it a TP, an undetected sequence is a FN, and every predicted
//     sequence with no overlap is one FP.
//   - The Numenta Anomaly Benchmark (NAB) score, point-wise: detections
//     inside a true window earn a sigmoid-weighted reward favouring early
//     detection, every false-positive time step costs 1/|anomalies|, and
//     every missed window costs 1/|anomalies|.
//   - The volume under the surface (VUS), a parameter-free measure that
//     sweeps both the score threshold and a buffer around true anomaly
//     sequences and integrates the resulting precision-recall surface.
//
// All functions accept a validity mask so the detector's warmup region can
// be excluded from scoring.
package metrics

import (
	"math"
	"sort"
)

// Range is an inclusive [Start, End] index interval.
type Range struct {
	Start, End int
}

// Len returns the number of time steps covered.
func (r Range) Len() int { return r.End - r.Start + 1 }

// Contains reports whether t lies inside the range.
func (r Range) Contains(t int) bool { return t >= r.Start && t <= r.End }

// Overlaps reports whether two ranges share at least one index.
func (r Range) Overlaps(o Range) bool { return r.Start <= o.End && o.Start <= r.End }

// Ranges extracts the maximal runs of true values as ranges.
func Ranges(labels []bool) []Range {
	var out []Range
	start := -1
	for i, v := range labels {
		switch {
		case v && start < 0:
			start = i
		case !v && start >= 0:
			out = append(out, Range{Start: start, End: i - 1})
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, Range{Start: start, End: len(labels) - 1})
	}
	return out
}

// Binarize thresholds the scores; invalid steps are always negative.
func Binarize(scores []float64, valid []bool, threshold float64) []bool {
	out := make([]bool, len(scores))
	for i, s := range scores {
		out[i] = valid[i] && s >= threshold
	}
	return out
}

// PRResult is a range-based confusion summary.
type PRResult struct {
	TP, FP, FN            int
	Precision, Recall, F1 float64
}

// RangePR computes range-based precision and recall of binary predictions
// against binary labels, following Hundman et al.
func RangePR(pred, labels []bool) PRResult {
	trueRanges := Ranges(labels)
	predRanges := Ranges(pred)
	var res PRResult
	for _, tr := range trueRanges {
		hit := false
		for _, pr := range predRanges {
			if tr.Overlaps(pr) {
				hit = true
				break
			}
		}
		if hit {
			res.TP++
		} else {
			res.FN++
		}
	}
	for _, pr := range predRanges {
		hit := false
		for _, tr := range trueRanges {
			if pr.Overlaps(tr) {
				hit = true
				break
			}
		}
		if !hit {
			res.FP++
		}
	}
	if res.TP+res.FP > 0 {
		res.Precision = float64(res.TP) / float64(res.TP+res.FP)
	}
	if res.TP+res.FN > 0 {
		res.Recall = float64(res.TP) / float64(res.TP+res.FN)
	}
	if res.Precision+res.Recall > 0 {
		res.F1 = 2 * res.Precision * res.Recall / (res.Precision + res.Recall)
	}
	return res
}

// thresholdGrid returns up to n candidate thresholds spanning the valid
// score distribution, descending.
func thresholdGrid(scores []float64, valid []bool, n int) []float64 {
	var vals []float64
	for i, s := range scores {
		if valid[i] {
			vals = append(vals, s)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	sort.Float64s(vals)
	if len(vals) <= n {
		uniq := vals[:0]
		prev := math.Inf(-1)
		for _, v := range vals {
			if v != prev {
				uniq = append(uniq, v)
				prev = v
			}
		}
		out := make([]float64, len(uniq))
		for i, v := range uniq {
			out[len(uniq)-1-i] = v
		}
		return out
	}
	out := make([]float64, 0, n)
	prev := math.Inf(1)
	for i := 0; i < n; i++ {
		q := float64(n-1-i) / float64(n-1)
		idx := int(q * float64(len(vals)-1))
		v := vals[idx]
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}

// PRAUC computes the area under the range-based precision-recall curve by
// sweeping up to gridSize thresholds over the score distribution and
// integrating precision over recall with the trapezoid rule.
func PRAUC(scores []float64, labels []bool, valid []bool, gridSize int) float64 {
	if gridSize <= 1 {
		gridSize = 100
	}
	grid := thresholdGrid(scores, valid, gridSize)
	if len(grid) == 0 {
		return 0
	}
	type pt struct{ r, p float64 }
	pts := make([]pt, 0, len(grid)+2)
	for _, th := range grid {
		res := RangePR(Binarize(scores, valid, th), labels)
		pts = append(pts, pt{r: res.Recall, p: res.Precision})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].r < pts[j].r })
	// Anchor the curve at recall 0 (carry the first precision) and close at
	// the maximal achieved recall.
	var auc float64
	prevR, prevP := 0.0, pts[0].p
	for _, q := range pts {
		auc += (q.r - prevR) * (q.p + prevP) / 2
		prevR, prevP = q.r, q.p
	}
	return auc
}

// nabSigmoid is the NAB scaled sigmoid σ(y) = 2/(1+e^{5y}) − 1, mapping
// positions y relative to the window end: y = −1 (window start) → ≈ 0.98,
// y = 0 (window end) → 0, y > 0 (after the window) → negative.
func nabSigmoid(y float64) float64 {
	return 2/(1+math.Exp(5*y)) - 1
}

// NABScore computes the paper's NAB variant at a fixed threshold: each
// true anomaly window contributes a sigmoid early-detection reward in
// (0, 1]/W when detected and −1/W when missed, and every false-positive
// time step outside all windows contributes −1/W, with W the number of
// true anomaly windows. A detector that flags one long spurious interval
// therefore scores very negatively, matching Table III.
//
// These are the Numenta benchmark's standard-profile weights; the paper
// reports no other profile.
func NABScore(scores []float64, labels []bool, valid []bool, threshold float64) float64 {
	windows := Ranges(labels)
	if len(windows) == 0 {
		return 0
	}
	w := float64(len(windows))
	pred := Binarize(scores, valid, threshold)
	var total float64
	for _, win := range windows {
		first := -1
		for t := win.Start; t <= win.End; t++ {
			if t >= 0 && t < len(pred) && pred[t] {
				first = t
				break
			}
		}
		if first < 0 {
			total -= 1 / w
			continue
		}
		// Relative position: −1 at window start, 0 at window end.
		var y float64
		if win.Len() > 1 {
			y = float64(first-win.End) / float64(win.Len()-1)
		}
		total += nabSigmoid(y) / w
	}
	for t, isPos := range pred {
		if !isPos {
			continue
		}
		inside := false
		for _, win := range windows {
			if win.Contains(t) {
				inside = true
				break
			}
		}
		if !inside {
			total -= 1 / w
		}
	}
	return total
}

// softLabels spreads each true anomaly window by buffer steps on both
// sides with linearly decaying weights, producing the continuous labels of
// the VUS construction.
func softLabels(labels []bool, buffer int) []float64 {
	soft := make([]float64, len(labels))
	for i, v := range labels {
		if v {
			soft[i] = 1
		}
	}
	if buffer <= 0 {
		return soft
	}
	for _, win := range Ranges(labels) {
		for d := 1; d <= buffer; d++ {
			wgt := 1 - float64(d)/float64(buffer+1)
			if i := win.Start - d; i >= 0 && wgt > soft[i] {
				soft[i] = wgt
			}
			if i := win.End + d; i < len(soft) && wgt > soft[i] {
				soft[i] = wgt
			}
		}
	}
	return soft
}

// softPRAUC computes point-wise precision-recall AUC against soft labels.
func softPRAUC(scores []float64, soft []float64, valid []bool, gridSize int) float64 {
	grid := thresholdGrid(scores, valid, gridSize)
	if len(grid) == 0 {
		return 0
	}
	var totalPos float64
	for i, s := range soft {
		if valid[i] {
			totalPos += s
		}
	}
	if totalPos == 0 {
		return 0
	}
	type pt struct{ r, p float64 }
	pts := make([]pt, 0, len(grid))
	for _, th := range grid {
		var tp, fp float64
		for i, s := range scores {
			if !valid[i] || s < th {
				continue
			}
			tp += soft[i]
			fp += 1 - soft[i]
		}
		var prec float64
		if tp+fp > 0 {
			prec = tp / (tp + fp)
		}
		pts = append(pts, pt{r: tp / totalPos, p: prec})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].r < pts[j].r })
	var auc float64
	prevR, prevP := 0.0, pts[0].p
	for _, q := range pts {
		auc += (q.r - prevR) * (q.p + prevP) / 2
		prevR, prevP = q.r, q.p
	}
	return auc
}

// VUS computes the volume under the precision-recall surface over both
// the score threshold and a label buffer swept from 0 to maxBuffer in
// nBuffers steps (Paparrizos et al.'s VUS construction with point-wise
// soft-label PR as the base measure).
func VUS(scores []float64, labels []bool, valid []bool, maxBuffer, nBuffers, gridSize int) float64 {
	if nBuffers < 1 {
		nBuffers = 1
	}
	var sum float64
	for i := 0; i < nBuffers; i++ {
		buffer := 0
		if nBuffers > 1 {
			buffer = maxBuffer * i / (nBuffers - 1)
		}
		soft := softLabels(labels, buffer)
		sum += softPRAUC(scores, soft, valid, gridSize)
	}
	return sum / float64(nBuffers)
}

// Summary bundles the Table III metrics for one detector run.
type Summary struct {
	Precision float64
	Recall    float64
	AUC       float64
	VUS       float64
	NAB       float64
}

// Evaluate computes all Table III metrics: range-based precision/recall
// at the fixed threshold, range-based PR-AUC, VUS and the NAB score.
func Evaluate(scores []float64, labels []bool, valid []bool, threshold float64) Summary {
	pr := RangePR(Binarize(scores, valid, threshold), labels)
	return Summary{
		Precision: pr.Precision,
		Recall:    pr.Recall,
		AUC:       PRAUC(scores, labels, valid, 50),
		VUS:       VUS(scores, labels, valid, 20, 5, 30),
		NAB:       NABScore(scores, labels, valid, threshold),
	}
}
