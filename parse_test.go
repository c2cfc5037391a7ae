package streamad

import (
	"fmt"
	"testing"
)

// parseAs parses s with the one parser and requires the tree to be a T.
func parseAs[T Spec](s string) (T, error) {
	sp, err := ParseSpec(s)
	t, ok := sp.(T)
	if err == nil && !ok {
		err = fmt.Errorf("%q parsed to a %T", s, sp)
	}
	return t, err
}

func TestParseModelKind(t *testing.T) {
	cases := map[string]ModelKind{
		"arima":     ModelARIMA,
		"ARIMA":     ModelARIMA,
		"arima-ons": ModelARIMAONS,
		"pcb":       ModelPCBIForest,
		"iforest":   ModelPCBIForest,
		"ae":        ModelAE,
		"usad":      ModelUSAD,
		"nbeats":    ModelNBEATS,
		"n-beats":   ModelNBEATS,
		"var":       ModelVAR,
		"knn":       ModelKNN,
	}
	for in, want := range cases {
		got, err := ParseModelKind(in)
		if err != nil || got != want {
			t.Errorf("ParseModelKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseModelKind("transformer"); err == nil {
		t.Error("unknown model must error")
	}
}

func TestParseTask1(t *testing.T) {
	cases := map[string]Task1{
		"sw": TaskSlidingWindow, "ures": TaskUniformReservoir, "ARES": TaskAnomalyReservoir,
	}
	for in, want := range cases {
		got, err := ParseTask1(in)
		if err != nil || got != want {
			t.Errorf("ParseTask1(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseTask1("fifo"); err == nil {
		t.Error("unknown task1 must error")
	}
}

func TestParseTask2(t *testing.T) {
	cases := map[string]Task2{
		"musigma": TaskMuSigma, "ms": TaskMuSigma, "kswin": TaskKSWIN,
		"KS": TaskKSWIN, "regular": TaskRegular, "adwin": TaskADWIN,
	}
	for in, want := range cases {
		got, err := ParseTask2(in)
		if err != nil || got != want {
			t.Errorf("ParseTask2(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseTask2("ddm"); err == nil {
		t.Error("unknown task2 must error")
	}
}

func TestParseScoreKind(t *testing.T) {
	cases := map[string]ScoreKind{
		"avg": ScoreAverage, "AL": ScoreLikelihood, "raw": ScoreRaw,
	}
	for in, want := range cases {
		got, err := ParseScoreKind(in)
		if err != nil || got != want {
			t.Errorf("ParseScoreKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScoreKind("zscore"); err == nil {
		t.Error("unknown score must error")
	}
}

// TestParseAggKind: every combiner name an ensemble spec's agg= option
// accepts, and one it refuses.
func TestParseAggKind(t *testing.T) {
	spec := func(agg string) string { return "ensemble(arima+sw+kswin, knn+sw+kswin; agg=" + agg + ")" }
	cases := map[string]AggKind{
		"mean": AggMean, "avg": AggMean, "MAX": AggMax, "median": AggMedian,
		"trimmed": AggTrimmedMean, "trimmed-mean": AggTrimmedMean,
		"perf": AggPerfWeighted, "weighted": AggPerfWeighted,
	}
	for in, want := range cases {
		got, err := parseAs[EnsembleSpec](spec(in))
		if err != nil || got.Agg != want {
			t.Errorf("ParseSpec(%q): agg %v, %v", spec(in), got.Agg, err)
		}
	}
	if _, err := ParseSpec(spec("mode")); err == nil {
		t.Error("unknown combiner must error")
	}
}

func TestParsePipelineSpec(t *testing.T) {
	got, err := parseAs[PipelineSpec]("arima+sw+kswin")
	if err != nil {
		t.Fatal(err)
	}
	want := PipelineSpec{Model: ModelARIMA, Task1: TaskSlidingWindow, Task2: TaskKSWIN, Score: ScoreLikelihood}
	if got != want {
		t.Fatalf("ParseSpec = %+v, want %+v (omitted score must default to AL)", got, want)
	}
	got, err = parseAs[PipelineSpec](" USAD + ares + regular + avg ")
	if err != nil {
		t.Fatal(err)
	}
	want = PipelineSpec{Model: ModelUSAD, Task1: TaskAnomalyReservoir, Task2: TaskRegular, Score: ScoreAverage}
	if got != want {
		t.Fatalf("ParseSpec = %+v, want %+v", got, want)
	}
	// Round trip through String.
	back, err := parseAs[PipelineSpec](want.String())
	if err != nil || back != want {
		t.Fatalf("round trip %q → %+v, %v", want.String(), back, err)
	}
	for _, bad := range []string{"", "usad", "usad+sw", "usad+sw+musigma+al+extra", "bogus+sw+kswin", "usad+bogus+kswin", "usad+sw+bogus", "usad+sw+kswin+bogus"} {
		if _, err := parseAs[PipelineSpec](bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestParseEnsembleSpec(t *testing.T) {
	got, err := ParseEnsembleSpec("ensemble(arima+sw+kswin, usad+ares+regular; agg=median)")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Members) != 2 || got.Agg != AggMedian || got.PruneEnabled {
		t.Fatalf("unexpected spec %+v", got)
	}
	if got.Members[0].Model != ModelARIMA || got.Members[1].Model != ModelUSAD {
		t.Fatalf("member models wrong: %+v", got.Members)
	}

	got, err = ParseEnsembleSpec("ENSEMBLE( knn+sw+regular+avg , pcb+ares+kswin , nbeats+ures+kswin ; agg=perf, verdict=0.7, cap=32, prune=-8 )")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Members) != 3 || got.Agg != AggPerfWeighted || got.Verdict != 0.7 ||
		got.CounterCap != 32 || !got.PruneEnabled || got.PruneBelow != -8 {
		t.Fatalf("unexpected spec %+v", got)
	}

	// Options are optional.
	got, err = ParseEnsembleSpec("ensemble(arima+sw+kswin, usad+ares+regular)")
	if err != nil || got.Agg != AggMean {
		t.Fatalf("optionless spec: %+v, %v", got, err)
	}

	// Round trip through String.
	back, err := ParseEnsembleSpec(got.String())
	if err != nil || len(back.Members) != 2 || back.Agg != got.Agg {
		t.Fatalf("round trip %q → %+v, %v", got.String(), back, err)
	}

	for _, bad := range []string{
		"ensemble()",
		"ensemble(arima+sw+kswin)",                               // one member
		"ensemble(arima+sw+kswin, )",                             // empty member
		"ensemble(arima+sw+kswin, usad+ares+regular",             // unclosed
		"ensemble(arima+sw+kswin, usad+ares+regular; agg=mode)",  // bad combiner
		"ensemble(arima+sw+kswin, usad+ares+regular; prune=3)",   // non-negative prune
		"ensemble(arima+sw+kswin, usad+ares+regular; cap=0)",     // bad cap
		"ensemble(arima+sw+kswin, usad+ares+regular; verdict=x)", // bad verdict
		"ensemble(arima+sw+kswin, usad+ares+regular; agg)",       // not key=value
		"ensemble(arima+sw+kswin, usad+ares+regular; foo=1)",     // unknown option
	} {
		if _, err := ParseEnsembleSpec(bad); err == nil {
			t.Errorf("ParseEnsembleSpec(%q) accepted", bad)
		}
	}

	if !IsEnsembleSpec("  Ensemble(a, b)") || IsEnsembleSpec("usad+sw+musigma") {
		t.Error("IsEnsembleSpec misclassifies")
	}
}
