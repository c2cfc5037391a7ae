package ensemble

import (
	"sort"

	"streamad/internal/spec"
)

// Agg selects how member scores are combined into the ensemble score.
// The same combiner is applied to the members' nonconformity values.
type Agg int

const (
	// AggMean is the unweighted average (the default).
	AggMean Agg = iota
	// AggMax is the most alarmed member's score — sensitive, and as noisy
	// as the noisiest member.
	AggMax
	// AggMedian is the member median, robust to a minority of outlier
	// members.
	AggMedian
	// AggTrimmedMean drops the ⌈n/4⌉ lowest and highest scores (at least
	// one of each once n ≥ 3) and averages the rest.
	AggTrimmedMean
	// AggPerfWeighted weights each member by 1 + max(pc_i, 0), where pc_i
	// is its rolling agreement-with-consensus counter — the PCB-iForest
	// performance-counter scheme applied to whole pipelines.
	AggPerfWeighted
)

// AggNames is the combiners' name table: what the spec grammar's agg=
// option accepts and prints.
var AggNames = spec.Enum[Agg]{What: "combiner", Rows: []spec.Names{
	AggMean:         {Spec: "mean", Aliases: []string{"avg", "average"}},
	AggMax:          {Spec: "max"},
	AggMedian:       {Spec: "median"},
	AggTrimmedMean:  {Spec: "trimmed", Aliases: []string{"trimmed-mean", "trim"}},
	AggPerfWeighted: {Spec: "perf", Aliases: []string{"perf-weighted", "weighted", "performance"}},
}}

// String returns the combiner name as accepted by the spec grammar.
func (a Agg) String() string { return AggNames.Spec(a) }

// combine aggregates values (non-empty) under agg. weights runs parallel
// to values and is consulted only by AggPerfWeighted. scratch is a reused
// sort buffer owned by the caller.
func combine(agg Agg, values, weights []float64, scratch *[]float64) float64 {
	switch agg {
	case AggMax:
		m := values[0]
		for _, v := range values[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case AggMedian:
		s := sortedInto(scratch, values)
		n := len(s)
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	case AggTrimmedMean:
		s := sortedInto(scratch, values)
		k := trimCount(len(s))
		s = s[k : len(s)-k]
		return mean(s)
	case AggPerfWeighted:
		var num, den float64
		for i, v := range values {
			num += weights[i] * v
			den += weights[i]
		}
		if den == 0 {
			return mean(values)
		}
		return num / den
	default: // AggMean
		return mean(values)
	}
}

// trimCount is how many values AggTrimmedMean drops from each end:
// ⌈n/4⌉, but never so many that nothing remains, and zero while there
// are fewer than three members to trim between.
func trimCount(n int) int {
	if n < 3 {
		return 0
	}
	k := (n + 3) / 4
	if 2*k >= n {
		k = (n - 1) / 2
	}
	return k
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// sortedInto copies values into the scratch buffer and sorts it.
func sortedInto(scratch *[]float64, values []float64) []float64 {
	s := append((*scratch)[:0], values...)
	*scratch = s
	sort.Float64s(s)
	return s
}
