package streamad

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// footprintSeries is a seeded random stream of n rows over channels.
func footprintSeries(n, channels int) [][]float64 {
	rng := rand.New(rand.NewSource(11))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, channels)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDetectorFootprint pins the resident bytes of one warmed detector at
// the benchmark's geometries: the live heap that 64 detectors add, each
// stepped well past w+m, divided by 64. The sliding window stores each
// stream row once; a return to one copy per window adds m·w·N·8 bytes
// (102 KB for arima, 51 KB for pcb) and fails the ceiling.
func TestDetectorFootprint(t *testing.T) {
	const detectors, steps = 64, 400
	for _, c := range []struct {
		spec     string
		channels int
		ceiling  uint64 // bytes per detector: this layout's figure + 10 %
	}{
		{"arima+sw+musigma", 8, 26_500},
		{"pcb+sw+musigma", 4, 89_000},
	} {
		t.Run(c.spec, func(t *testing.T) {
			series := footprintSeries(steps, c.channels)
			cfg := Config{Channels: c.channels, Window: 16, TrainSize: 100, Seed: 1}
			before := liveHeap()
			dets := make([]StreamDetector, detectors)
			for i := range dets {
				d, err := NewFromSpec(c.spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range series {
					d.Step(s)
				}
				dets[i] = d
			}
			per := (liveHeap() - before) / detectors
			runtime.KeepAlive(dets)
			t.Logf("%s: %.1f KB per detector", c.spec, float64(per)/1024)
			if per > c.ceiling {
				t.Fatalf("%s holds %d bytes per warmed detector, over the ceiling of %d", c.spec, per, c.ceiling)
			}
		})
	}
}

// TestTask1SourceIsLazy: the Task 1 generator exists only for the
// strategies that draw from it. A sliding-window detector past warm-up
// holds none; a uniform reservoir draws exactly as many values as when
// the generator was built up front.
func TestTask1SourceIsLazy(t *testing.T) {
	series := footprintSeries(400, 4)
	for _, c := range []struct {
		task1 Task1
		draws uint64
	}{
		{TaskSlidingWindow, 0},
		{TaskUniformReservoir, 414},
	} {
		d, err := New(Config{Model: ModelARIMA, Task1: c.task1, Task2: TaskMuSigma, Channels: 4, Window: 16, TrainSize: 100, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range series {
			d.Step(s)
		}
		built := !reflect.ValueOf(d.src).Elem().FieldByName("src").IsNil()
		if got := d.src.Draws(); got != c.draws || built != (c.draws > 0) {
			t.Fatalf("%v: %d draws, generator built %v; want %d draws", c.task1, got, built, c.draws)
		}
	}
}
