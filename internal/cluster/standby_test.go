package cluster

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"streamad/internal/core"
	"streamad/internal/ingest"
	"streamad/internal/persist"
)

// nopStepper is a detector that never scores.
type nopStepper struct{}

func (nopStepper) Step([]float64) (core.Result, bool) { return core.Result{}, false }

// TestTailReplicaDecodesWALBytes: a standby replays an owner's tail only
// when the whole body decodes as WAL-file bytes and every value is
// finite. A non-finite value, a torn body or an older build's NDJSON
// lines replay nothing, and the replica stays where it was.
func TestTailReplicaDecodesWALBytes(t *testing.T) {
	var body []byte
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	defer owner.Close()
	reg, err := ingest.New(ingest.Config{
		NewDetector: func(string) (ingest.Stepper, error) { return nopStepper{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	n, err := New(Config{Self: "http://self.test", Peers: []string{"http://self.test", owner.URL}})
	if err != nil {
		t.Fatal(err)
	}
	n.reg = reg
	rep, err := reg.NewReplica(&persist.StreamSnapshot{ID: "s"})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	body = persist.EncodeWAL([]persist.WALRecord{{Seq: 0, Vector: []float64{1}}, {Seq: 1, Vector: []float64{2}}})
	if err := n.tailReplica(rep, owner.URL); err != nil {
		t.Fatal(err)
	}
	if rep.Seq() != 2 || n.standbyReplayed.Load() != 2 {
		t.Fatalf("after a clean tail: replica at seq %d, %d replayed; want 2, 2", rep.Seq(), n.standbyReplayed.Load())
	}
	next := persist.EncodeWAL([]persist.WALRecord{{Seq: 2, Vector: []float64{3}}, {Seq: 3, Vector: []float64{4}}})
	for name, bad := range map[string][]byte{
		"non-finite": persist.EncodeWAL([]persist.WALRecord{{Seq: 2, Vector: []float64{3}}, {Seq: 3, Vector: []float64{math.NaN()}}}),
		"torn":       next[:len(next)-3],
		"ndjson":     []byte(`{"seq":2,"vector":[3]}` + "\n"),
	} {
		body = bad
		if err := n.tailReplica(rep, owner.URL); err == nil {
			t.Errorf("%s tail accepted", name)
		}
		if rep.Seq() != 2 || n.standbyReplayed.Load() != 2 {
			t.Fatalf("%s tail moved the replica to seq %d (%d replayed), want it kept at 2", name, rep.Seq(), n.standbyReplayed.Load())
		}
	}
}
