package tier0

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"streamad/internal/core"
)

// detector is the full tier-0 contract under test.
type detector = core.Node

// builders constructs every tier-0 detector from one config.
var builders = []struct {
	name  string
	build func(cfg Config) (detector, error)
}{
	{"ewma", func(cfg Config) (detector, error) { return NewEWMA(cfg) }},
	{"zscore", func(cfg Config) (detector, error) { return NewZScore(cfg) }},
	{"hampel", func(cfg Config) (detector, error) { return NewHampel(cfg) }},
	{"density", func(cfg Config) (detector, error) { return NewDensity(cfg) }},
}

// calmVec fills dst with a small-amplitude deterministic waveform plus
// seeded noise — the in-distribution baseline for the tests.
func calmVec(dst []float64, t int, rng *rand.Rand) []float64 {
	for c := range dst {
		dst[c] = math.Sin(float64(t)*0.11+float64(c)) + 0.05*rng.NormFloat64()
	}
	return dst
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                        // Channels missing
		{Channels: 3, Window: 2},  // Window too short
		{Channels: 3, Alpha: 1.5}, // Alpha out of range
		{Channels: 3, Sample: -1}, // Sample negative
		{Channels: 3, Warmup: 1},  // Warmup too small
	}
	for i, cfg := range bad {
		if _, err := NewEWMA(cfg); err == nil {
			t.Errorf("config %d: NewEWMA accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := NewZScore(Config{Channels: 2}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

// TestSpikeDetection drives every detector over a calm baseline with one
// injected spike and checks the spike's score dominates the calm scores.
func TestSpikeDetection(t *testing.T) {
	const (
		channels = 3
		steps    = 400
		spikeAt  = 350
	)
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			d, err := b.build(Config{Channels: channels, Window: 32, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			buf := make([]float64, channels)
			var spikeScore, calmMax float64
			for i := 0; i < steps; i++ {
				calmVec(buf, i, rng)
				if i == spikeAt {
					buf[1] += 8 // a clear out-of-distribution excursion
				}
				res, ok := d.Step(buf)
				if !ok {
					continue
				}
				if res.Score < 0 || res.Score >= 1 {
					t.Fatalf("step %d: score %v outside [0,1)", i, res.Score)
				}
				switch {
				case i == spikeAt:
					spikeScore = res.Score
				case i > 100 && i < spikeAt:
					if res.Score > calmMax {
						calmMax = res.Score
					}
				}
			}
			if d.Steps() != steps {
				t.Fatalf("Steps() = %d, want %d", d.Steps(), steps)
			}
			if d.FineTunes() != 0 {
				t.Fatalf("FineTunes() = %d, want 0", d.FineTunes())
			}
			if spikeScore <= calmMax {
				t.Fatalf("spike score %v does not exceed calm max %v", spikeScore, calmMax)
			}
		})
	}
}

// TestNonFiniteInput checks a NaN-bearing vector neither panics nor
// permanently poisons the running statistics.
func TestNonFiniteInput(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			d, err := b.build(Config{Channels: 2, Window: 16, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			buf := make([]float64, 2)
			for i := 0; i < 200; i++ {
				calmVec(buf, i, rng)
				if i%17 == 0 {
					buf[0] = math.NaN()
				}
				if i%29 == 0 {
					buf[1] = math.Inf(1)
				}
				if res, ok := d.Step(buf); ok {
					if !finite(res.Score) || !finite(res.Nonconformity) {
						t.Fatalf("step %d: non-finite output %+v", i, res)
					}
				}
			}
		})
	}
}

// TestSaveLoadBitIdentity checkpoints every detector mid-stream and
// checks a restored twin produces bit-identical results on the remainder.
func TestSaveLoadBitIdentity(t *testing.T) {
	const (
		channels = 3
		total    = 300
		cut      = 140
	)
	cfg := Config{Channels: channels, Window: 24, Seed: 13}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			// One shared input tape, so both halves see identical data.
			rng := rand.New(rand.NewSource(23))
			tape := make([][]float64, total)
			for i := range tape {
				tape[i] = calmVec(make([]float64, channels), i, rng)
			}
			orig, err := b.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cut; i++ {
				orig.Step(tape[i])
			}
			blob, err := orig.Save()
			if err != nil {
				t.Fatal(err)
			}
			twin, err := b.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := twin.Load(blob); err != nil {
				t.Fatal(err)
			}
			if twin.Steps() != orig.Steps() {
				t.Fatalf("restored Steps() = %d, want %d", twin.Steps(), orig.Steps())
			}
			for i := cut; i < total; i++ {
				r1, ok1 := orig.Step(tape[i])
				r2, ok2 := twin.Step(tape[i])
				if ok1 != ok2 || r1.Score != r2.Score || r1.Nonconformity != r2.Nonconformity {
					t.Fatalf("step %d diverged: orig (%+v,%v) twin (%+v,%v)", i, r1, ok1, r2, ok2)
				}
			}
		})
	}
}

// TestLoadRejectsMismatch checks each detector refuses a snapshot from a
// differently-configured twin.
func TestLoadRejectsMismatch(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			src, err := b.build(Config{Channels: 2, Window: 16})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := src.Save()
			if err != nil {
				t.Fatal(err)
			}
			dst, err := b.build(Config{Channels: 3, Window: 16})
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Load(blob); err == nil {
				t.Fatal("Load accepted a snapshot with mismatched channels")
			}
		})
	}
}

// TestHampelAgainstReference cross-checks the incremental sorted-view
// median/MAD against a brute-force recomputation every step.
func TestHampelAgainstReference(t *testing.T) {
	const (
		channels = 2
		w        = 11
		steps    = 500
	)
	d, err := NewHampel(Config{Channels: channels, Window: w})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	// ref holds each channel's window in arrival order.
	ref := make([][]float64, channels)
	buf := make([]float64, channels)
	for i := 0; i < steps; i++ {
		for c := range buf {
			buf[c] = rng.NormFloat64() * (1 + float64(c))
		}
		res, ok := d.Step(buf)
		if ok {
			// Brute-force expected max robust z across channels.
			var want float64
			for c := range buf {
				win := append([]float64(nil), ref[c]...)
				sort.Float64s(win)
				med := win[len(win)/2]
				devs := make([]float64, len(win))
				for j, v := range win {
					devs[j] = math.Abs(v - med)
				}
				sort.Float64s(devs)
				mad := devs[len(devs)/2]
				z := math.Abs(buf[c]-med) / (1.4826*mad + eps)
				if z > want {
					want = z
				}
			}
			if math.Abs(res.Nonconformity-want) > 1e-9 {
				t.Fatalf("step %d: hampel z = %v, reference = %v", i, res.Nonconformity, want)
			}
		}
		for c := range buf {
			ref[c] = append(ref[c], buf[c])
			if len(ref[c]) > w {
				ref[c] = ref[c][1:]
			}
		}
	}
}

// TestDensityFullScan checks Sample ≥ Window scans deterministically
// without consuming random draws.
func TestDensityFullScan(t *testing.T) {
	d, err := NewDensity(Config{Channels: 2, Window: 8, Sample: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	buf := make([]float64, 2)
	for i := 0; i < 50; i++ {
		d.Step(calmVec(buf, i, rng))
	}
	if draws := d.src.Draws(); draws != 0 {
		t.Fatalf("full-scan density consumed %d random draws, want 0", draws)
	}
}

// TestRunMatchesStep checks core.Run over a tier-0 node agrees with stepping.
func TestRunMatchesStep(t *testing.T) {
	const channels = 2
	rng := rand.New(rand.NewSource(47))
	series := make([][]float64, 120)
	for i := range series {
		series[i] = calmVec(make([]float64, channels), i, rng)
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			d1, _ := b.build(Config{Channels: channels, Window: 16, Seed: 5})
			d2, _ := b.build(Config{Channels: channels, Window: 16, Seed: 5})
			scores, valid := core.Run(d1, series)
			for i, s := range series {
				res, ok := d2.Step(s)
				if ok != valid[i] {
					t.Fatalf("step %d: Run valid=%v, Step ok=%v", i, valid[i], ok)
				}
				if ok && res.Score != scores[i] {
					t.Fatalf("step %d: Run score %v, Step score %v", i, scores[i], res.Score)
				}
			}
		})
	}
}
