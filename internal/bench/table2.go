package bench

import (
	"fmt"
	"io"
	"math/rand"

	"streamad/internal/drift"
	"streamad/internal/randstate"
	"streamad/internal/reservoir"
)

// OpRow is one Table II comparison: measured per-step operation counts of
// a Task 2 method next to the paper's closed-form formula.
type OpRow struct {
	Method   string
	Channels int // N
	Window   int // w
	Train    int // m
	Measured drift.OpCounts
	Formula  drift.OpCounts
	Steps    int
}

// OpCountExperiment drives both Task 2 detectors over a synthetic sliding
// window stream and reports the average per-step operation counts,
// reproducing Table II's comparison for the given (N, m, w).
func OpCountExperiment(channels, repWin, trainSize, steps int, seed int64) []OpRow {
	rng := rand.New(randstate.NewCountedSource(seed))
	dim := channels * repWin

	mkStream := func() [][]float64 {
		out := make([][]float64, steps+trainSize)
		for i := range out {
			x := make([]float64, dim)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			out[i] = x
		}
		return out
	}

	run := func(det drift.Detector) drift.OpCounts {
		set := reservoir.NewSlidingWindow(trainSize, dim, dim)
		stream := mkStream()
		// Fill and snapshot the reference.
		for i := 0; i < trainSize; i++ {
			set.Observe(stream[i], 0)
		}
		det.Reset(set)
		before := det.Ops()
		for i := trainSize; i < len(stream); i++ {
			u := set.Observe(stream[i], 0)
			if det.Observe(u, stream[i], set) {
				det.Reset(set)
			}
		}
		after := det.Ops()
		return drift.OpCounts{
			Adds:  after.Adds - before.Adds,
			Mults: after.Mults - before.Mults,
			Cmps:  after.Cmps - before.Cmps,
		}
	}

	perStep := func(total drift.OpCounts) drift.OpCounts {
		return drift.OpCounts{
			Adds:  total.Adds / int64(steps),
			Mults: total.Mults / int64(steps),
			Cmps:  total.Cmps / int64(steps),
		}
	}

	mu := drift.NewMuSigmaChange(dim)
	ks := drift.NewKSWIN(channels, repWin, drift.DefaultAlpha)
	return []OpRow{
		{
			Method: "μ/σ-Change", Channels: channels, Window: repWin, Train: trainSize,
			Measured: perStep(run(mu)),
			Formula:  drift.PaperFormulaMuSigma(channels, repWin),
			Steps:    steps,
		},
		{
			Method: "KSWIN", Channels: channels, Window: repWin, Train: trainSize,
			Measured: perStep(run(ks)),
			Formula:  drift.PaperFormulaKSWIN(channels, repWin, trainSize),
			Steps:    steps,
		},
	}
}

// WriteTable2 prints the operation-count rows.
func WriteTable2(w io.Writer, rows []OpRow) {
	fmt.Fprintf(w, "%-11s %3s %4s %4s  %12s %12s %14s   %12s %12s %14s\n",
		"Method", "N", "w", "m", "adds/step", "mults/step", "cmps/step",
		"adds(paper)", "mults(paper)", "cmps(paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %3d %4d %4d  %12d %12d %14d   %12d %12d %14d\n",
			r.Method, r.Channels, r.Window, r.Train,
			r.Measured.Adds, r.Measured.Mults, r.Measured.Cmps,
			r.Formula.Adds, r.Formula.Mults, r.Formula.Cmps)
	}
}
