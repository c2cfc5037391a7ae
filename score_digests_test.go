package streamad

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"streamad/internal/scenario"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/score_digests.json and testdata/sync_checkpoints from the current build")

const scoreDigestFile = "testdata/score_digests.json"

// The neural pipelines and the ensemble of the benchmark's model-heavy
// workload, at its geometry; the pipelines of its other three workloads;
// a tier-0 leaf; and a cascade over an ensemble, the deepest detector
// tree the grammar builds.
var scoreDigestSpecs = []string{
	"ae+sw+musigma",
	"usad+sw+musigma",
	"nbeats+sw+musigma",
	"ensemble(usad+sw+musigma, nbeats+sw+musigma; agg=mean)",
	"arima+sw+musigma",
	"pcb+sw+musigma",
	"knn+sw+musigma",
	"hampel",
	"cascade(zscore, ensemble(arima+sw+musigma, knn+sw+musigma; agg=median); admit=0.05)",
}

// The benchmark's input family: a 2 % contaminated gaussian base with one
// abrupt 4σ mean shift, after which musigma fires repeatedly.
const (
	scoreDigestScenario = "drift(base(corpus=gauss,channels=8,p=0.02,pool=2048),kind=abrupt,at=1500,shift=4)"
	scoreDigestSteps    = 3000
)

// scoreDigest folds (ready, score bits) of every step into an FNV-64a
// and returns it with the number of fine-tunes the run performed.
func scoreDigest(t *testing.T, spec string) (string, int) {
	t.Helper()
	det, err := NewFromSpec(spec, Config{Channels: 8, Window: 16, TrainSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse(scoreDigestScenario)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := sc.NewStream(1)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var rec [9]byte
	for i := 0; i < scoreDigestSteps; i++ {
		v, _ := stream.Next()
		res, ready := det.Step(v)
		rec[0] = 0
		if ready {
			rec[0] = 1
		}
		binary.LittleEndian.PutUint64(rec[1:], math.Float64bits(res.Score))
		h.Write(rec[:])
	}
	return fmt.Sprintf("%016x", h.Sum64()), det.FineTunes()
}

// TestScoreDigestsMatchParent pins every score of the nn-backed
// pipelines to the digests captured on the commit before the kernels
// were last touched: a kernel change that moves one bit of one score in
// 3,000 steps — warm-up fit, scoring and at least two fine-tunes — fails
// here. After an intended numeric change, `go test -run
// TestScoreDigestsMatchParent -update .` rewrites the file.
func TestScoreDigestsMatchParent(t *testing.T) {
	got := make(map[string]string, len(scoreDigestSpecs))
	for _, spec := range scoreDigestSpecs {
		d, fineTunes := scoreDigest(t, spec)
		sp, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, tier0 := sp.(Tier0Kind); fineTunes < 2 && !tier0 { // tier-0 detectors have no model to fine-tune
			t.Errorf("%s: %d fine-tunes in %d steps, the digest must cover at least 2", spec, fineTunes, scoreDigestSteps)
		}
		t.Logf("%s: %s, %d fine-tunes", spec, d, fineTunes)
		got[spec] = d
	}
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scoreDigestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(scoreDigestFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestScoreDigestsMatchParent -update .)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", scoreDigestFile, err)
	}
	for _, spec := range scoreDigestSpecs {
		if got[spec] != want[spec] {
			t.Errorf("%s: score digest %s, pinned %s: a score changed bit-wise", spec, got[spec], want[spec])
		}
	}
}
