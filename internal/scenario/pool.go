// Pool construction: where the instances behind a Generator come from.
// Corpus pools split the paper's benchmark stand-ins (internal/dataset)
// into normal and anomalous rows by ground-truth label; the synthetic
// gaussian pool gives load tests a cheap, dimension-configurable base.
package scenario

import (
	"fmt"
	"math/rand"

	"streamad/internal/dataset"
	"streamad/internal/randstate"
)

// Pools is a labelled instance source for NewGenerator.
type Pools struct {
	Normal  [][]float64
	Anomaly [][]float64
}

// maxPoolValues bounds the floats a pool may hold: sizes reach these
// constructors from scenario specs, which are outside input.
const maxPoolValues = 1 << 22

// CorpusPools generates the named benchmark corpus (daphnet, exathlon or
// smd — see internal/dataset) at the given length and splits its rows by
// label. Equal (name, length, seed) triples produce identical pools.
func CorpusPools(name string, length int, seed int64) (Pools, error) {
	if length <= 0 {
		length = 2600 // dataset.FastConfig scale
	}
	if length < 2 || length > maxPoolValues/64 { // the generators draw from [0, length/2)
		return Pools{}, fmt.Errorf("scenario: corpus length %d must be in [2, %d]", length, maxPoolValues/64)
	}
	cfg := dataset.Config{Length: length, SeriesCount: 1, Seed: seed}
	var corpus *dataset.Corpus
	switch name {
	case "daphnet":
		corpus = dataset.Daphnet(cfg)
	case "exathlon":
		corpus = dataset.Exathlon(cfg)
	case "smd":
		corpus = dataset.SMD(cfg)
	default:
		return Pools{}, fmt.Errorf("scenario: unknown corpus %q (want daphnet, exathlon, smd or gauss)", name)
	}
	var p Pools
	for _, s := range corpus.Series {
		for t, row := range s.Data {
			if s.Labels[t] {
				p.Anomaly = append(p.Anomaly, row)
			} else {
				p.Normal = append(p.Normal, row)
			}
		}
	}
	if len(p.Anomaly) == 0 {
		return Pools{}, fmt.Errorf("scenario: corpus %q yielded no anomalous rows at length %d", name, length)
	}
	return p, nil
}

// GaussPools draws a synthetic base: normal instances from N(0,1)^ch and
// anomalous ones from N(shift,1)^ch on a seeded-random subset of
// channels (at least one). The separation is crisp by construction, so
// detection-recall assertions in soak runs measure the serving path, not
// the statistical difficulty of the corpus.
func GaussPools(ch, n int, shift float64, seed int64) (Pools, error) {
	if ch <= 0 {
		return Pools{}, fmt.Errorf("scenario: gauss pool needs channels > 0, got %d", ch)
	}
	if n <= 0 {
		n = 512
	}
	if n > maxPoolValues/ch {
		return Pools{}, fmt.Errorf("scenario: gauss pool of %d × %d channels exceeds %d values", n, ch, maxPoolValues)
	}
	if shift == 0 {
		shift = 6
	}
	rng := rand.New(randstate.NewCountedSource(seed))
	var p Pools
	p.Normal = make([][]float64, n)
	for i := range p.Normal {
		row := make([]float64, ch)
		for c := range row {
			row[c] = rng.NormFloat64()
		}
		p.Normal[i] = row
	}
	// Anomalies displace a random half (at least one) of the channels.
	na := n/4 + 1
	p.Anomaly = make([][]float64, na)
	for i := range p.Anomaly {
		row := make([]float64, ch)
		for c := range row {
			row[c] = rng.NormFloat64()
		}
		hit := ch/2 + 1
		for _, c := range rng.Perm(ch)[:hit] {
			row[c] += shift
		}
		p.Anomaly[i] = row
	}
	return p, nil
}
