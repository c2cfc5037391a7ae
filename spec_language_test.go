package streamad

import (
	"reflect"
	"strings"
	"testing"
)

// canonicalSpec parses s the way NewFromSpec does and renders it back in
// canonical form, without building a detector.
func canonicalSpec(s string) (string, error) {
	sp, err := ParseSpec(s)
	if err != nil {
		return "", err
	}
	return sp.String(), nil
}

// specLanguage pins the accepted spec language and its canonical
// rendering: input → String() of what it parses to, or "" for a spec that
// must be rejected. The canonical strings are /metrics labels, Result
// sources and bytes inside cascade checkpoints, so a row only changes
// with a declared language change.
var specLanguage = []struct{ in, want string }{
	// Pipelines: score defaults to the anomaly likelihood, names are
	// case-insensitive, aliased and whitespace-tolerant.
	{"arima+sw+kswin", "arima+sw+kswin+al"},
	{" USAD + ares + regular + avg ", "usad+ares+regular+avg"},
	{"usad+sw+musigma+al", "usad+sw+musigma+al"},
	{"ae+sw+regular+al+async", "ae+sw+regular+al+async"},
	{"arima+sw+kswin+async", "arima+sw+kswin+al+async"},
	{"KNN+SW+MS+AL+ASYNC", "knn+sw+musigma+al+async"},
	{"ONS+sliding-window+mu-sigma+anomaly-likelihood", "arima-ons+sw+musigma+al"},
	{"arimaons+sliding+ks+likelihood", "arima-ons+sw+kswin+al"},
	{"arima-ons+ures+adwin+raw", "arima-ons+ures+adwin+raw"},
	{"pcb-iforest+uniform+ks+average", "pcb+ures+kswin+avg"},
	{"iforest+anomaly-aware+regular", "pcb+ares+regular+al"},
	{"autoencoder+ares+adwin+raw", "ae+ares+adwin+raw"},
	{"n-beats+sw+musigma", "nbeats+sw+musigma+al"},
	{"var+sw+musigma+avg", "var+sw+musigma+avg"},
	{"", ""},
	{"usad", ""},
	{"knn", ""}, // a bare model is a cascade heavy-member shorthand only
	{"usad+sw", ""},
	{"usad+sw+musigma+al+extra", ""},
	{"usad+sw+musigma+al+async+async", ""},
	{"arima+sw+async", ""}, // async is not a task2
	{"bogus+sw+kswin", ""},
	{"usad+bogus+kswin", ""},
	{"usad+sw+bogus", ""},
	{"usad+sw+kswin+bogus", ""},
	{"zscore+sw+musigma", ""},
	{"usad+sw+musigma, knn+sw+musigma", ""},
	{"usad+sw+musigma)", ""},
	{"agg=mean", ""},

	// Tier-0 detectors stand alone.
	{"hampel", "hampel"},
	{"ewma", "ewma"},
	{"density", "density"},
	{" Z-Score ", "zscore"},
	{"z", "zscore"},
	{"hampel x", ""},
	{"hampel()", ""},

	// Ensembles.
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg=median)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=median)"},
	{"ENSEMBLE( knn+sw+regular+avg , pcb+ares+kswin , nbeats+ures+kswin ; agg=perf, verdict=0.7, cap=32, prune=-8 )",
		"ensemble(knn+sw+regular+avg, pcb+ares+kswin+al, nbeats+ures+kswin+al; agg=perf, verdict=0.7, cap=32, prune=-8)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=mean)"},
	{"  Ensemble(arima+sw+kswin,usad+ares+regular)  ", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=mean)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular;)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=mean)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; )", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=mean)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg=max,)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=max)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; , agg=max)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=max)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; AGG = Trimmed-Mean)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=trimmed)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg=avg)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=mean)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg=average)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=mean)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg=trim)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=trimmed)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg=perf-weighted)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=perf)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg=weighted)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=perf)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg=performance)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=perf)"},
	// Default-valued options are not printed.
	{"ensemble(arima+sw+kswin, usad+ares+regular; cap=64, verdict=0.5)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=mean)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; verdict=0)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=mean)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; verdict=-1.5, prune=-16)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=mean, verdict=-1.5, prune=-16)"},
	{"ensemble(arima+sw+kswin, usad+ares+regular; verdict=2.5e-1)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=mean, verdict=0.25)"},
	{"ensemble(arima+sw+kswin+async, usad+ares+regular+raw; agg=max)", "ensemble(arima+sw+kswin+al+async, usad+ares+regular+raw; agg=max)"},
	{"ensemble()", ""},
	{"ensemble(arima+sw+kswin)", ""},                               // one member
	{"ensemble(arima+sw+kswin, )", ""},                             // empty member
	{"ensemble(arima+sw+kswin, , usad+ares+regular)", ""},          // empty member
	{"ensemble(arima+sw+kswin, usad+ares+regular", ""},             // unclosed
	{"ensemble(arima+sw+kswin, usad+ares+regular))", ""},           // unbalanced
	{"ensemble(arima+sw+kswin, usad+ares+regular) x", ""},          // trailing input
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg=mode)", ""},  // bad combiner
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg=)", ""},      // empty value
	{"ensemble(arima+sw+kswin, usad+ares+regular; prune=3)", ""},   // non-negative prune
	{"ensemble(arima+sw+kswin, usad+ares+regular; prune=0)", ""},   // non-negative prune
	{"ensemble(arima+sw+kswin, usad+ares+regular; cap=0)", ""},     // bad cap
	{"ensemble(arima+sw+kswin, usad+ares+regular; cap=1.5)", ""},   // bad cap
	{"ensemble(arima+sw+kswin, usad+ares+regular; verdict=x)", ""}, // bad verdict
	{"ensemble(arima+sw+kswin, usad+ares+regular; verdict=nan)", ""},
	{"ensemble(arima+sw+kswin, usad+ares+regular; verdict=inf)", ""},
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg)", ""},                // not key=value
	{"ensemble(arima+sw+kswin, usad+ares+regular; foo=1)", ""},              // unknown option
	{"ensemble(arima+sw+kswin, usad+ares+regular; admit=0.1)", ""},          // a cascade option
	{"ensemble(arima+sw+kswin, usad+ares+regular; agg=max; cap=8)", ""},     // second options section
	{"ensemble(arima+sw+kswin, usad+ares+regular, agg=max)", ""},            // option among the members
	{"ensemble(knn, arima+sw+kswin)", ""},                                   // bare model as a member
	{"ensemble(zscore, arima+sw+kswin)", ""},                                // tier-0 as a member
	{"ensemble(ensemble(arima+sw+kswin, knn+sw+kswin), usad+sw+kswin)", ""}, // ensembles do not nest
	{"ensemble(cascade(zscore, knn), usad+sw+kswin)", ""},                   // nor hold cascades

	// Cascades.
	{"cascade(zscore, knn)", "cascade(zscore, knn+sw+musigma+al; admit=0.1)"},
	{"cascade(hampel, usad+sw+musigma+al; admit=0.05, calib=256, gatewin=32)", "cascade(hampel, usad+sw+musigma+al; admit=0.05, calib=256, gatewin=32)"},
	{"cascade(ewma, ensemble(arima+sw+kswin, usad+ares+regular; agg=median); admit=0.02)",
		"cascade(ewma, ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=median); admit=0.02)"},
	{"cascade(density, knn+sw+musigma+raw, arima+sw+kswin)", "cascade(density, knn+sw+musigma+raw, arima+sw+kswin+al; admit=0.1)"},
	{"cascade(z, KNN+SW+MS+AL+ASYNC)", "cascade(zscore, knn+sw+musigma+al+async; admit=0.1)"},
	{"CASCADE( Z-Score , KNN )", "cascade(zscore, knn+sw+musigma+al; admit=0.1)"},
	{"cascade(zscore,knn;admit=0.05)", "cascade(zscore, knn+sw+musigma+al; admit=0.05)"},
	{"cascade(zscore, knn;)", "cascade(zscore, knn+sw+musigma+al; admit=0.1)"},
	{"cascade(zscore, knn; ,)", "cascade(zscore, knn+sw+musigma+al; admit=0.1)"},
	{"cascade(ewma, ensemble(arima+sw+kswin, knn+sw+kswin;);)", "cascade(ewma, ensemble(arima+sw+kswin+al, knn+sw+kswin+al; agg=mean); admit=0.1)"},
	{"cascade(ewma, ensemble(arima+sw+kswin, knn+sw+kswin))", "cascade(ewma, ensemble(arima+sw+kswin+al, knn+sw+kswin+al; agg=mean); admit=0.1)"},
	{"cascade(ewma, usad, PCB, arima-ons)", "cascade(ewma, usad+sw+musigma+al, pcb+sw+musigma+al, arima-ons+sw+musigma+al; admit=0.1)"},
	{"cascade(hampel, knn, arima+ures+adwin+raw, ensemble(usad+sw+musigma, nbeats+ares+kswin+avg; agg=trimmed, prune=-4), ons; admit=0.2, calib=64)",
		"cascade(hampel, knn+sw+musigma+al, arima+ures+adwin+raw, ensemble(usad+sw+musigma+al, nbeats+ares+kswin+avg; agg=trimmed, prune=-4), arima-ons+sw+musigma+al; admit=0.2, calib=64)"},
	// Default-valued options are not printed; admit always is.
	{"cascade(zscore, knn; calib=128, gatewin=64)", "cascade(zscore, knn+sw+musigma+al; admit=0.1)"},
	{"cascade(zscore, knn; admit=0.1, calib=128)", "cascade(zscore, knn+sw+musigma+al; admit=0.1)"},
	{"cascade(zscore, knn; ADMIT = 1e-2, GateWin=4, calib=8)", "cascade(zscore, knn+sw+musigma+al; admit=0.01, calib=8, gatewin=4)"},
	{"cascade()", ""},
	{"cascade(zscore)", ""},                         // no heavy member
	{"cascade(knn, zscore)", ""},                    // gate is not tier-0
	{"cascade(zscore, zscore)", ""},                 // heavy member is tier-0
	{"cascade(zscore, )", ""},                       // empty heavy member
	{"cascade(zscore, knn, ; admit=0.1)", ""},       // empty heavy member
	{"cascade(, knn)", ""},                          // empty gate
	{"cascade(zscore, knn; admit=1.5)", ""},         // admit out of range
	{"cascade(zscore, knn; admit=0)", ""},           // admit out of range
	{"cascade(zscore, knn; admit=nan)", ""},         // admit out of range
	{"cascade(zscore, knn; calib=4)", ""},           // calib too small
	{"cascade(zscore, knn; gatewin=2)", ""},         // gatewin too small
	{"cascade(zscore, knn; bogus=1)", ""},           // unknown option
	{"cascade(zscore, knn; agg=mean)", ""},          // an ensemble option
	{"cascade(zscore, knn; admit)", ""},             // not key=value
	{"cascade(zscore, knn; admit=0.1; x=1)", ""},    // two option sections
	{"cascade(zscore, cascade(ewma, knn))", ""},     // cascades do not nest
	{"cascade(zscore, knn", ""},                     // unterminated
	{"cascade(zscore, knn))", ""},                   // unbalanced
	{"cascade(zscore, knn) knn", ""},                // trailing input
	{"cascade(zscore, knn+sw)", ""},                 // malformed heavy pipeline
	{"cascade(zscore, ensemble(knn+sw+kswin))", ""}, // malformed heavy ensemble
	{"cascade(zscore+sw+musigma, knn)", ""},         // gate is a pipeline

	// The two rows the shared lexer changed on purpose: a repeated option
	// key used to let the last one win in both combinators (this spec
	// parsed as "...; agg=max); admit=0.2)"), and a space before "(" fell
	// through to the pipeline grammar.
	{"cascade(zscore, ensemble(arima+sw+kswin, knn+sw+kswin; agg=mean, agg=max); admit=0.05, admit=0.2)", ""},
	{"ensemble (arima+sw+kswin, usad+ares+regular)", "ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=mean)"},
}

func TestSpecLanguage(t *testing.T) {
	for _, tc := range specLanguage {
		got, err := canonicalSpec(tc.in)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("%q accepted as %q, want an error", tc.in, got)
		case tc.want != "" && err != nil:
			t.Errorf("%q rejected (%v), want %q", tc.in, err, tc.want)
		case tc.want != "" && got != tc.want:
			t.Errorf("%q → %q, want %q", tc.in, got, tc.want)
		}
		if tc.want == "" || err != nil {
			continue
		}
		// The canonical form is a fixed point.
		if again, err := canonicalSpec(got); err != nil || again != got {
			t.Errorf("canonical %q re-parses to %q, %v", got, again, err)
		}
	}
}

// TestSpecDuplicateOption: each combinator rejects a repeated key by
// itself (the pinned row above nests one inside the other).
func TestSpecDuplicateOption(t *testing.T) {
	for _, s := range []string{
		"ensemble(arima+sw+kswin, knn+sw+kswin; agg=mean, agg=max)",
		"ensemble(arima+sw+kswin, knn+sw+kswin; cap=8, CAP=8)",
		"cascade(zscore, knn; admit=0.05, admit=0.2)",
	} {
		if sp, err := ParseSpec(s); err == nil || !strings.Contains(err.Error(), "duplicate option") {
			t.Errorf("ParseSpec(%q) = %v, %v; want a duplicate-option error", s, sp, err)
		}
	}
}

// leafSeeds walks the tree under n and collects the seed every pipeline
// leaf was built with (tier-0 leaves have no Config and are skipped).
func leafSeeds(n StreamDetector, into []int64) []int64 {
	if d, ok := n.(*Detector); ok {
		return append(into, d.Config().Seed)
	}
	for _, c := range n.Children() {
		into = leafSeeds(c, into)
	}
	return into
}

// TestLeafSeeds pins the derived seed lanes: which Config.Seed every leaf
// of a composite receives decides its reservoir draws, forest shapes and
// weight initializations, and therefore every score.
func TestLeafSeeds(t *testing.T) {
	for _, tc := range []struct {
		spec string
		seed int64
		want []int64
	}{
		{scoreDigestSpecs[3], 1, []int64{1, 1000004}},
		{scoreDigestSpecs[8], 1, []int64{1000004, 2000007}},
		{"cascade(zscore, knn)", 1, []int64{1000004}},
		{"cascade(zscore, knn)", 0, []int64{1000004}}, // seed 0 means 1
		{"cascade(hampel, ensemble(arima+sw+kswin, pcb+ares+kswin), knn)", 42, []int64{1000045, 2000048, 2000048}},
		{"cascade(hampel, knn, ensemble(arima+sw+kswin, pcb+ares+kswin, knn+sw+kswin))", 42, []int64{1000045, 2000048, 3000051, 4000054}},
		{"ensemble(knn+sw+kswin, knn+sw+kswin, knn+sw+kswin)", 7, []int64{7, 1000010, 2000013}},
	} {
		det, err := NewFromSpec(tc.spec, Config{Channels: 8, Window: 16, TrainSize: 100, Seed: tc.seed})
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if got := leafSeeds(det, nil); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s at seed %d: leaf seeds %v, want %v", tc.spec, tc.seed, got, tc.want)
		}
	}
}

// FuzzParseSpec: ParseSpec never panics, and the canonical form of a spec
// it accepts is a fixed point — it re-parses, to the same String. Seeds:
// the pin table above and testdata/fuzz.
func FuzzParseSpec(f *testing.F) {
	for _, tc := range specLanguage {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		canon := sp.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("%q parses to %q, which does not re-parse: %v", s, canon, err)
		}
		if again.String() != canon {
			t.Fatalf("%q parses to %q, which re-parses to %q", s, canon, again.String())
		}
	})
}
