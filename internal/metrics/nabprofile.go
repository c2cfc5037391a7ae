package metrics

// NABProfile weights the three NAB outcome classes. The Numenta benchmark
// defines three application profiles; the paper reports the standard one,
// and the others are provided for completeness.
type NABProfile struct {
	Name string
	// ATP scales the sigmoid reward of a detected window.
	ATP float64
	// AFP scales the cost of each false-positive time step.
	AFP float64
	// AFN scales the cost of each missed window.
	AFN float64
}

// Standard is the NAB standard profile: balanced weights.
func StandardProfile() NABProfile { return NABProfile{Name: "standard", ATP: 1, AFP: 1, AFN: 1} }

// RewardLowFP penalizes false positives more heavily — the profile for
// settings where alerts are expensive (e.g. paging an operator).
func RewardLowFPProfile() NABProfile {
	return NABProfile{Name: "reward_low_FP", ATP: 1, AFP: 2, AFN: 1}
}

// RewardLowFN penalizes misses more heavily — the profile for settings
// where an undetected anomaly is the expensive outcome.
func RewardLowFNProfile() NABProfile {
	return NABProfile{Name: "reward_low_FN", ATP: 1, AFP: 0.5, AFN: 2}
}

// NABScoreProfile is the NAB score with explicit profile weights;
// NABScore is this with the standard profile.
func NABScoreProfile(scores []float64, labels []bool, valid []bool, threshold float64, p NABProfile) float64 {
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
			total -= p.AFN / w
			continue
		}
		// Relative position: −1 at window start, 0 at window end.
		var y float64
		if win.Len() > 1 {
			y = float64(first-win.End) / float64(win.Len()-1)
		}
		total += p.ATP * nabSigmoid(y) / w
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
			total -= p.AFP / w
		}
	}
	return total
}
