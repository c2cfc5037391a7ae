package main

import (
	"fmt"
	"strconv"

	"streamad/internal/scenario"
)

// basePool is the gaussian base every stream draws from: 2 % exact
// contamination over a pool large enough that a stream's detection
// quality does not hinge on a dozen recurring anomalies.
const basePool = "base(corpus=gauss,channels=%d,p=0.02,pool=2048)"

// scenarioSpec is the input family of every workload: the contaminated
// base with abrupt 4σ mean drift, so detectors score, alert and
// fine-tune. flips are the stream indexes where the concept switches:
// one switch is an abrupt drift that stays, two bracket a drifted span.
func scenarioSpec(channels int, flips []int) string {
	base := fmt.Sprintf(basePool, channels)
	switch len(flips) {
	case 1:
		return fmt.Sprintf("drift(%s,kind=abrupt,at=%d,shift=4)", base, flips[0])
	case 2:
		// Recurring with a period longer than any run: drifted exactly
		// during [at, at+span).
		return fmt.Sprintf("drift(%s,kind=recurring,at=%d,span=%d,period=1000000000,shift=4)", base, flips[0], flips[1]-flips[0])
	}
	return base
}

// flipFractions places stream i's concept switches as fractions of its
// timed quota. Fine-tunes follow a switch and are by far the most
// expensive thing a detector does, so switches are spread evenly over
// the run and over the connections: every fifth of the run — every
// slice vectors_per_s is the median of — holds the same number of them,
// and a 1/8 replay prefix still sees one. Fleets of ten or more streams
// switch once per stream; smaller ones share ten switches.
func (w *workload) flipFractions(i int) []float64 {
	own := w.streams / w.conns
	rank := (i%own)*w.conns + i/own // interleaves the connections
	if w.streams >= 10 {
		return []float64{(float64(rank) + 0.5) / float64(w.streams)}
	}
	var f []float64
	for j := rank; j < 10; j += w.streams {
		f = append(f, (float64(j)+0.5)/10)
	}
	return f
}

// inputs is the generated traffic of one run: one labelled scenario
// stream per server stream. The same (workload, seed, seconds) always
// yields the same inputs.
type inputs struct {
	wl    *workload
	seed  int64
	reqs  int     // timed-phase requests per connection
	quota []int   // timed-phase vectors per stream
	flips [][]int // per-stream indexes of the concept switches
}

// newInputs sizes the run.
func newInputs(wl *workload, seed int64, seconds float64) *inputs {
	in := &inputs{wl: wl, seed: seed, reqs: wl.requestsPerConn(seconds)}
	in.quota = wl.streamQuota(in.reqs)
	in.flips = make([][]int, wl.streams)
	for i := range in.flips {
		for _, f := range wl.flipFractions(i) {
			in.flips[i] = append(in.flips[i], wl.prefix()+int(f*float64(in.quota[i])))
		}
	}
	return in
}

// prefix is how many vectors set-up feeds each stream before the timed
// phase: the warm-up plus the one post-restore probe.
func (w *workload) prefix() int { return w.warm + 1 }

// totalVectors is the exact timed-phase record count.
func (in *inputs) totalVectors() int {
	t := 0
	for _, q := range in.quota {
		t += q
	}
	return t
}

// stream builds stream i's generator, positioned at its first vector.
func (in *inputs) stream(i int) (scenario.Stream, error) {
	sc, err := scenario.Parse(scenarioSpec(in.wl.channels, in.flips[i]))
	if err != nil {
		return nil, err
	}
	return sc.NewStream(scenario.DeriveSeed(in.seed, fmt.Sprintf("%s/stream/%d", in.wl.name, i)))
}

// streams builds every generator of the run.
func (in *inputs) streams() ([]scenario.Stream, error) {
	out := make([]scenario.Stream, in.wl.streams)
	for i := range out {
		s, err := in.stream(i)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// appendVector renders a JSON array of floats in the shortest form that
// parses back to the same bits, so the server and the in-process
// reference see identical values.
func appendVector(dst []byte, v []float64) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	return append(dst, ']')
}

// appendBatchRecord renders one NDJSON line of POST /v1/observe.
func appendBatchRecord(dst []byte, id string, v []float64) []byte {
	dst = append(dst, `{"stream":"`...)
	dst = append(dst, id...)
	dst = append(dst, `","vector":`...)
	dst = appendVector(dst, v)
	return append(dst, "}\n"...)
}

// appendSingleBody renders the body of POST /v1/streams/{id}/observe.
func appendSingleBody(dst []byte, v []float64) []byte {
	dst = append(dst, `{"vector":`...)
	dst = appendVector(dst, v)
	return append(dst, '}')
}
