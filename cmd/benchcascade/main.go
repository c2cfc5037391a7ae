// Command benchcascade regenerates BENCH_cascade.json: one in-process
// run of a deterministic scenario through the always-on heavy pipeline
// and through the cascade that screens for it, on identical vectors.
// The report compares mean per-vector cost, point recall under the same
// adaptive-quantile alert policy, and the conformal gate's observed
// false-admission rate against its configured target:
//
//	benchcascade -heavy knn -gate zscore -admit 0.1 -out BENCH_cascade.json
//
// The command self-grades: it exits 1 when the cascade misses the cost
// or quality gates (-min-cost-reduction, -max-recall-loss-pt,
// -admit-slack), 2 on harness errors, so make ci can run it directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"streamad"
	"streamad/internal/scenario"
	"streamad/internal/score"
)

// defaultScenario is the soak workload with the drift pushed out to
// step 5000 so both detectors see a long stationary stretch first:
// 4-channel gaussian base, 2% labelled contamination, 4-sigma abrupt
// mean shift.
const defaultScenario = "drift(base(corpus=gauss,channels=4,p=0.02,pool=512),kind=abrupt,at=5000,shift=4)"

// Report is the BENCH_cascade.json document.
//
//streamad:finite-json — every float is routed through finite() when the report is assembled.
type Report struct {
	Scenario      string      `json:"scenario"`
	Seed          int64       `json:"seed"`
	Vectors       int         `json:"vectors"`
	Warmup        int         `json:"warmup_vectors"`
	AlertQuantile float64     `json:"alert_quantile"`
	Plain         RunStats    `json:"plain"`
	Cascade       CascadeRun  `json:"cascade"`
	CostReduction float64     `json:"cost_reduction"`
	RecallLossPt  float64     `json:"recall_loss_pt"`
	Gates         GatesReport `json:"gates"`
}

// RunStats is one detector's half of the comparison: per-vector Step
// cost over the post-warmup region and the exact-match confusion matrix
// under the shared alert policy.
type RunStats struct {
	Spec           string  `json:"spec"`
	MeanStepNs     float64 `json:"mean_step_ns"`
	Evaluated      int     `json:"evaluated_records"`
	TrueAnomalies  int     `json:"true_anomalies"`
	Alerts         int     `json:"alerts"`
	TruePositives  int     `json:"true_positives"`
	FalsePositives int     `json:"false_positives"`
	Recall         float64 `json:"recall"`
	Precision      float64 `json:"precision"`
	FalseAlarmRate float64 `json:"false_alarm_rate"`
}

// CascadeRun extends RunStats with the screen's admission accounting.
type CascadeRun struct {
	RunStats
	AdmitTarget float64 `json:"admit_target"`
	Screened    int     `json:"screened"`
	Admitted    int     `json:"admitted"`
	Forwarded   int     `json:"forwarded"`
	// AdmissionRate is admitted/(screened+admitted) over the whole run.
	AdmissionRate float64 `json:"admission_rate"`
	// HeavyRate is the fraction of all vectors the heavy tier scored,
	// ramp-up included.
	HeavyRate float64 `json:"heavy_rate"`
	// FalseAdmissionRate is the fraction of ground-truth-normal,
	// post-warmup vectors the gate admitted while screening was active —
	// the empirical check of the conformal target.
	FalseAdmissionRate float64 `json:"false_admission_rate"`
}

// GatesReport records the self-grading verdict.
type GatesReport struct {
	MinCostReduction float64  `json:"min_cost_reduction"`
	MaxRecallLossPt  float64  `json:"max_recall_loss_pt"`
	AdmitSlack       float64  `json:"admit_slack"`
	Violations       []string `json:"violations"`
	Pass             bool     `json:"pass"`
}

func main() {
	var (
		spec    = flag.String("scenario", defaultScenario, "scenario spec (internal/scenario grammar)")
		vectors = flag.Int("vectors", 16000, "vectors to stream")
		warmup  = flag.Int("warmup", 512, "leading vectors excluded from cost and detection metrics")
		seed    = flag.Int64("seed", 1, "scenario and detector seed")
		heavy   = flag.String("heavy", streamad.PipelineSpec{Model: streamad.ModelKNN, Score: streamad.ScoreLikelihood}.String(), "heavy member spec (pipeline or ensemble grammar)")
		gate    = flag.String("gate", streamad.Tier0ZScore.String(), "tier-0 gate detector name")
		admit   = flag.Float64("admit", 0.1, "target false-admission rate of the conformal gate")
		calib   = flag.Int("calib", 128, "conformal calibration-window capacity")
		gatewin = flag.Int("gatewin", 64, "tier-0 gate ring length")
		window  = flag.Int("w", 16, "data representation length")
		train   = flag.Int("m", 256, "training set size")
		quant   = flag.Float64("alert-quantile", 0.98, "adaptive alert quantile shared by both runs")
		out     = flag.String("out", "BENCH_cascade.json", "report path (empty: stdout only)")

		minCost    = flag.Float64("min-cost-reduction", 5, "gate: min plain/cascade mean per-vector cost ratio (0 disables)")
		maxLoss    = flag.Float64("max-recall-loss-pt", 2, "gate: max recall loss in percentage points (negative disables)")
		admitSlack = flag.Float64("admit-slack", 0.5, "gate: max relative error of observed vs target false-admission rate (negative disables)")
	)
	flag.Parse()

	rep, err := bench(*spec, *seed, *vectors, *warmup, *heavy, *gate,
		*admit, *calib, *gatewin, *window, *train, *quant)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcascade:", err)
		os.Exit(2)
	}
	rep.Gates = grade(rep, *minCost, *maxLoss, *admitSlack)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcascade:", err)
		os.Exit(2)
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchcascade:", err)
			os.Exit(2)
		}
	}
	os.Stdout.Write(blob)
	fmt.Fprintf(os.Stderr, "benchcascade: %.0fns/vec plain vs %.0fns/vec cascade (%.1fx), recall %.4f vs %.4f (%.2fpt loss), false admission %.4f vs target %.4f\n",
		rep.Plain.MeanStepNs, rep.Cascade.MeanStepNs, rep.CostReduction,
		rep.Plain.Recall, rep.Cascade.Recall, rep.RecallLossPt,
		rep.Cascade.FalseAdmissionRate, rep.Cascade.AdmitTarget)
	if !rep.Gates.Pass {
		for _, v := range rep.Gates.Violations {
			fmt.Fprintln(os.Stderr, "benchcascade: gate violation:", v)
		}
		os.Exit(1)
	}
}

func bench(spec string, seed int64, vectors, warmup int, heavy, gate string,
	admit float64, calib, gatewin, window, train int, quant float64) (*Report, error) {
	if vectors <= 0 || warmup < 0 || warmup >= vectors {
		return nil, fmt.Errorf("need warmup in [0, vectors); got warmup %d, vectors %d", warmup, vectors)
	}
	sc, err := scenario.Parse(spec)
	if err != nil {
		return nil, err
	}
	gen, err := sc.NewStream(scenario.DeriveSeed(seed, "bench"))
	if err != nil {
		return nil, err
	}
	series := make([][]float64, vectors)
	labels := make([]bool, vectors)
	for i := range series {
		v, anom := gen.Next()
		row := make([]float64, len(v))
		for c, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			row[c] = x
		}
		series[i], labels[i] = row, anom
	}

	// The cascade spec is parsed from the same grammar the server
	// accepts, so the heavy member label in the report is the canonical
	// form and the plain run is built from exactly that spec.
	tree, err := streamad.ParseSpec(fmt.Sprintf("cascade(%s, %s; admit=%g, calib=%d, gatewin=%d)",
		gate, heavy, admit, calib, gatewin))
	if err != nil {
		return nil, err
	}
	casSpec := tree.(streamad.CascadeSpec)
	base := streamad.Config{Channels: gen.Channels(), Window: window, TrainSize: train, Seed: seed}

	rep := &Report{
		Scenario: spec, Seed: seed, Vectors: vectors, Warmup: warmup,
		AlertQuantile: quant,
	}

	plainDet, err := casSpec.Heavy[0].Build(base)
	if err != nil {
		return nil, err
	}
	rep.Plain = evalRun(plainDet, casSpec.Heavy[0].String(), series, labels, warmup, quant, nil)

	cas, err := streamad.NewCascade(base, casSpec)
	if err != nil {
		return nil, err
	}
	defer cas.Close()
	var adm admitTrack
	rep.Cascade.RunStats = evalRun(cas, casSpec.String(), series, labels, warmup, quant, &adm)
	st := cas.Stats().Cascade
	rep.Cascade.AdmitTarget = finite(st.AdmitTarget)
	rep.Cascade.Screened = st.Screened
	rep.Cascade.Admitted = st.Admitted
	rep.Cascade.Forwarded = st.Forwarded
	rep.Cascade.AdmissionRate = finite(st.AdmissionRate)
	rep.Cascade.HeavyRate = finite(st.HeavyRate)
	rep.Cascade.FalseAdmissionRate = ratio(adm.admittedNormals, adm.decidedNormals)

	if rep.Cascade.MeanStepNs > 0 {
		rep.CostReduction = finite(rep.Plain.MeanStepNs / rep.Cascade.MeanStepNs)
	}
	rep.RecallLossPt = finite((rep.Plain.Recall - rep.Cascade.Recall) * 100)
	return rep, nil
}

// admitTrack counts the gate's decisions on ground-truth-normal
// vectors: decided = screening was active on a post-warmup normal
// vector, admitted = it went to the heavy tier anyway.
type admitTrack struct {
	prevScreened    int
	prevAdmitted    int
	decidedNormals  int
	admittedNormals int
}

// evalRun streams the series through one detector, timing Step alone
// (the alert policy runs outside the timed region so nanosecond gates
// are not diluted) and classifying post-warmup records exactly. When
// adm is non-nil the detector is the cascade and per-step admission
// decisions are recovered from its counter deltas.
func evalRun(det streamad.StreamDetector, spec string, series [][]float64, labels []bool,
	warmup int, quant float64, adm *admitTrack) RunStats {
	rs := RunStats{Spec: spec}
	thr := score.NewQuantileThresholder(quant)
	cas, _ := det.(*streamad.Cascade)
	var stepTime time.Duration
	timed := 0
	for i, v := range series {
		t0 := time.Now()
		res, ok := det.Step(v)
		if i >= warmup {
			stepTime += time.Since(t0)
			timed++
		}
		if adm != nil && cas != nil {
			st := cas.Stats().Cascade
			screened := st.Screened > adm.prevScreened
			admitted := st.Admitted > adm.prevAdmitted
			adm.prevScreened, adm.prevAdmitted = st.Screened, st.Admitted
			if (screened || admitted) && i >= warmup && !labels[i] {
				adm.decidedNormals++
				if admitted {
					adm.admittedNormals++
				}
			}
		}
		if !ok {
			continue
		}
		alert := thr.Alert(res.Nonconformity)
		if i < warmup {
			continue
		}
		rs.Evaluated++
		if labels[i] {
			rs.TrueAnomalies++
		}
		if alert {
			rs.Alerts++
			if labels[i] {
				rs.TruePositives++
			} else {
				rs.FalsePositives++
			}
		}
	}
	if timed > 0 {
		rs.MeanStepNs = finite(float64(stepTime.Nanoseconds()) / float64(timed))
	}
	rs.Recall = ratio(rs.TruePositives, rs.TrueAnomalies)
	rs.Precision = ratio(rs.TruePositives, rs.Alerts)
	rs.FalseAlarmRate = ratio(rs.FalsePositives, rs.Evaluated-rs.TrueAnomalies)
	return rs
}

// grade evaluates the self-grading gates against the finished report.
func grade(rep *Report, minCost, maxLoss, admitSlack float64) GatesReport {
	g := GatesReport{MinCostReduction: minCost, MaxRecallLossPt: maxLoss, AdmitSlack: admitSlack}
	if minCost > 0 && rep.CostReduction < minCost {
		g.Violations = append(g.Violations,
			fmt.Sprintf("cost reduction %.2fx below gate %.2fx", rep.CostReduction, minCost))
	}
	if maxLoss >= 0 && rep.RecallLossPt > maxLoss {
		g.Violations = append(g.Violations,
			fmt.Sprintf("recall loss %.2fpt exceeds gate %.2fpt", rep.RecallLossPt, maxLoss))
	}
	if admitSlack >= 0 && rep.Cascade.AdmitTarget > 0 {
		rel := math.Abs(rep.Cascade.FalseAdmissionRate-rep.Cascade.AdmitTarget) / rep.Cascade.AdmitTarget
		if rel > admitSlack {
			g.Violations = append(g.Violations,
				fmt.Sprintf("false admission %.4f is %.0f%% off target %.4f (gate ±%.0f%%)",
					rep.Cascade.FalseAdmissionRate, rel*100, rep.Cascade.AdmitTarget, admitSlack*100))
		}
	}
	g.Pass = len(g.Violations) == 0
	return g
}

// ratio is num/den with an explicit zero-denominator guard, so the
// report never carries NaN into JSON.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return finite(float64(num) / float64(den))
}

// finite zeroes non-finite values before they reach the JSON report.
func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}
