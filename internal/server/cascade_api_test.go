package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"streamad"
	"streamad/internal/score"
)

// TestCascadeAPIExposition drives a cascade-backed stream end to end and
// checks the three exposure surfaces: per-result source attribution,
// the stats endpoint's cascade section, and the streamad_cascade_*
// metric families.
func TestCascadeAPIExposition(t *testing.T) {
	base := streamad.Config{Channels: 3, Window: 8, TrainSize: 32, WarmupVectors: 40, Seed: 3}
	const spec = "cascade(zscore, knn; admit=0.1, calib=64, gatewin=32)"
	ts := newIngestServer(t, Config{
		NewDetector: func(string) (Stepper, error) {
			return streamad.NewFromSpec(spec, base)
		},
	})

	rng := rand.New(rand.NewSource(61))
	sawGate, sawHeavy := false, false
	const batch = 100
	for off := 0; off < 800; off += batch {
		var b strings.Builder
		for i := off; i < off+batch; i++ {
			v := make([]float64, 3)
			for c := range v {
				v[c] = math.Sin(float64(i)*0.07+float64(c)) + 0.05*rng.NormFloat64()
			}
			vec, _ := json.Marshal(v)
			fmt.Fprintf(&b, "{\"stream\": \"dev-1\", \"vector\": %s}\n", vec)
		}
		results, resp := postBatch(t, ts, b.String())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d", resp.StatusCode)
		}
		for _, r := range results {
			switch {
			case !r.Ready:
			case r.Source == "tier0:zscore":
				sawGate = true
			case strings.HasPrefix(r.Source, "heavy:"):
				sawHeavy = true
			default:
				t.Fatalf("unexpected source %q on seq %d", r.Source, r.Seq)
			}
		}
	}
	if !sawGate || !sawHeavy {
		t.Fatalf("missing source attribution: gate=%v heavy=%v", sawGate, sawHeavy)
	}

	// Stats endpoint: the cascade section partitions the stream.
	resp, err := http.Get(ts.URL + "/v1/streams/dev-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	cs := st.Cascade
	if cs == nil {
		t.Fatal("stats response has no cascade section")
	}
	if cs.GateLabel != "zscore" || len(cs.HeavyLabels) != 1 || cs.HeavyLabels[0] != "knn+sw+musigma+al" {
		t.Fatalf("cascade labels wrong: %+v", cs)
	}
	if !cs.Screening || cs.Screened == 0 {
		t.Fatalf("screening not active in stats: %+v", cs)
	}
	if cs.Screened+cs.Admitted+cs.Forwarded != st.Steps {
		t.Fatalf("cascade counters do not partition steps: %+v vs steps=%d", cs, st.Steps)
	}
	if cs.AdmitTarget != 0.1 {
		t.Fatalf("admit target %v, want 0.1", cs.AdmitTarget)
	}
	if cs.HeavyRate <= 0 || cs.HeavyRate >= 1 {
		t.Fatalf("heavy rate %v out of (0,1)", cs.HeavyRate)
	}

	// Metrics endpoint: every streamad_cascade_* family is present.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`streamad_cascade_screened_total{stream="dev-1",gate="zscore"} `,
		`streamad_cascade_admitted_total{stream="dev-1",gate="zscore"} `,
		`streamad_cascade_forwarded_total{stream="dev-1",gate="zscore"} `,
		`streamad_cascade_admit_target{stream="dev-1"} 0.1`,
		`streamad_cascade_admission_rate{stream="dev-1"} `,
		`streamad_cascade_heavy_rate{stream="dev-1"} `,
		`streamad_cascade_screening{stream="dev-1"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestConformalAlertPolicyAPI checks the conformal thresholder works as
// the per-stream alert policy end to end: alerts stay rare on
// exchangeable scores.
func TestConformalAlertPolicyAPI(t *testing.T) {
	ts := newIngestServer(t, Config{
		NewThresholder: func(string) score.Thresholder {
			return score.NewConformal(128, 0.05)
		},
	})
	rng := rand.New(rand.NewSource(71))
	alerts, ready := 0, 0
	for i := 0; i < 600; i++ {
		body := fmt.Sprintf(`{"vector": [%g, 0, 0]}`, rng.NormFloat64())
		resp, err := http.Post(ts.URL+"/v1/streams/c-1/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out ObserveResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.Ready {
			ready++
			if out.Alert {
				alerts++
			}
		}
	}
	if ready == 0 {
		t.Fatal("no scored steps")
	}
	if rate := float64(alerts) / float64(ready); rate > 0.15 {
		t.Fatalf("conformal alert rate %v far above eps=0.05", rate)
	}
}
