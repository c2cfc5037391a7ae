// Command benchscale regenerates BENCH_scale.json: an in-process
// goroutine-economy benchmark of the serving stack at fleet scale. It
// walks a large stream population (default 10k) around the residency
// ladder in four phases against a durable registry running the shared
// scoring pool and trainer pool:
//
//  1. register: every stream observes a few vectors (fleet all-hot);
//  2. demote: one PageIdle sweep pages the entire fleet to warm,
//     timing the page-out rate;
//  3. steady: only the hot fraction (default 1%) sees traffic — each
//     hot stream's first observe transparently pages it back in;
//  4. evict: one EvictIdle sweep sends every stream that saw no steady
//     traffic cold, timing the eviction rate.
//
// Sweeps use synthetic cutoffs anchored at phase marks (the unit tests'
// idiom), so the censuses are deterministic however long a sweep takes.
//
//	benchscale -streams 10000 -hot-frac 0.01 -out BENCH_scale.json
//
// The report records goroutine count and heap at the phase boundaries
// plus tier censuses, transition totals, pool load, and hot-path
// throughput. The command self-grades and exits 1 when a scale gate is
// missed:
//
//   - goroutines stay O(workers): the steady-state count may exceed the
//     baseline by at most score workers + train slots + -goroutine-slack,
//     independent of the stream population;
//   - residency collapses to the working set: steady-state resident
//     (hot+warm) streams must not exceed -max-resident (default
//     2*hot + 64), and hot + warm must equal the registry's resident
//     count exactly;
//   - every hot stream actually took the warm→hot restore path during
//     the steady phase (warm_to_hot >= hot streams);
//   - memory tracks residency, not registrations: steady-state heap must
//     be at most -max-heap-frac (default 0.8) of the all-resident heap.
//
// Exit 2 means a harness error (a failed observe, a build error), not a
// gate miss.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamad"
	"streamad/internal/ingest"
	"streamad/internal/persist"
)

// Report is the BENCH_scale.json document.
//
//streamad:finite-json — every float is routed through round3 (zeroes non-finite) when the report is assembled.
type Report struct {
	Streams     int     `json:"streams"`
	HotStreams  int     `json:"hot_streams"`
	HotFraction float64 `json:"hot_fraction"`
	Channels    int     `json:"channels"`
	RegisterObs int     `json:"register_observations"`

	ScoreWorkers int    `json:"score_workers"`
	TrainSlots   int    `json:"train_slots"`
	WarmAfter    string `json:"warm_after"`
	StreamTTL    string `json:"stream_ttl"`

	Baseline   PhaseStats `json:"baseline"`
	Registered PhaseStats `json:"registered"`
	Warm       PhaseStats `json:"all_warm"`
	Steady     PhaseStats `json:"steady"`

	RegisterSeconds    float64 `json:"register_seconds"`
	RegisterVecPerSec  float64 `json:"register_vec_per_sec"`
	DemotedStreams     int     `json:"demoted_streams"`
	PageOutPerSec      float64 `json:"page_out_per_sec"`
	SteadySeconds      float64 `json:"steady_seconds"`
	SteadyObservations uint64  `json:"steady_observations"`
	SteadyVecPerSec    float64 `json:"steady_vec_per_sec"`
	EvictedStreams     int     `json:"evicted_streams"`
	EvictPerSec        float64 `json:"evict_per_sec"`

	Transitions TransitionStats `json:"tier_transitions"`
	TrainerPool TrainerStats    `json:"trainer_pool"`

	Gates GatesReport `json:"gates"`
}

// PhaseStats is one measurement point: process shape plus the registry's
// tier census. Measurements are taken after runtime.GC with no producers
// running, so heap reflects retained state, not allocation churn.
type PhaseStats struct {
	Goroutines  int     `json:"goroutines"`
	HeapMB      float64 `json:"heap_mb"`
	Resident    int     `json:"resident_streams"`
	HotTier     int     `json:"hot"`
	WarmTier    int     `json:"warm"`
	ColdTier    int     `json:"cold"`
	PoolWorkers int     `json:"score_pool_workers"`
}

// TransitionStats mirrors the streamad_tier_* transition counters.
type TransitionStats struct {
	HotToWarm  uint64 `json:"hot_to_warm"`
	WarmToHot  uint64 `json:"warm_to_hot"`
	WarmToCold uint64 `json:"warm_to_cold"`
	HotToCold  uint64 `json:"hot_to_cold"`
	ColdToHot  uint64 `json:"cold_to_hot"`
}

// TrainerStats mirrors the streamad_pool_train_* families.
type TrainerStats struct {
	Slots     int    `json:"slots"`
	Completed uint64 `json:"completed"`
	Canceled  uint64 `json:"canceled"`
}

// GatesReport is the self-grading verdict.
type GatesReport struct {
	MaxExtraGoroutines int     `json:"max_extra_goroutines"`
	ExtraGoroutines    int     `json:"extra_goroutines"`
	GoroutinesOK       bool    `json:"goroutines_ok"`
	MaxResident        int     `json:"max_resident"`
	ResidentOK         bool    `json:"resident_ok"`
	TiersConsistent    bool    `json:"tiers_consistent"`
	PromotionsOK       bool    `json:"promotions_ok"`
	MaxHeapFraction    float64 `json:"max_heap_fraction"`
	HeapFraction       float64 `json:"heap_fraction"`
	HeapOK             bool    `json:"heap_ok"`
	Pass               bool    `json:"pass"`
}

func main() {
	var (
		streams     = flag.Int("streams", 10000, "fleet size to register")
		hotFrac     = flag.Float64("hot-frac", 0.01, "fraction of the fleet driven during the steady phase")
		channels    = flag.Int("channels", 4, "stream dimensionality")
		registerObs = flag.Int("register-obs", 3, "observations per stream during registration")
		steadyFor   = flag.Duration("steady", 2*time.Second, "steady-phase duration")
		producers   = flag.Int("producers", 8, "concurrent producer goroutines")
		workers     = flag.Int("score-workers", 0, "scoring-pool workers (0 = GOMAXPROCS)")
		trainSlots  = flag.Int("train-slots", 2, "trainer-pool slots")
		warmAfter   = flag.Duration("warm-after", 300*time.Millisecond, "hot→warm demotion idle threshold")
		streamTTL   = flag.Duration("stream-ttl", time.Hour, "warm→cold eviction idle threshold; kept large so only the benchmark's anchored sweep (never a background tick racing a slow sweep) decides who goes cold")
		stateDir    = flag.String("state-dir", "", "snapshot/WAL/page directory (empty = a temp dir, removed afterwards)")
		out         = flag.String("out", "", "write the JSON report here (default stdout)")
		goroSlack   = flag.Int("goroutine-slack", 64, "allowed goroutines beyond baseline+workers+slots (registry internals, runtime)")
		maxResident = flag.Int("max-resident", 0, "steady-state resident-stream ceiling (0 = 2*hot+64)")
		maxHeapFrac = flag.Float64("max-heap-frac", 0.8, "steady heap ceiling as a fraction of all-resident heap")
		seed        = flag.Int64("seed", 1, "synthetic waveform seed")
	)
	flag.Parse()
	if *streams <= 0 || *hotFrac <= 0 || *hotFrac > 1 {
		fatal(fmt.Errorf("benchscale: need -streams > 0 and -hot-frac in (0,1]"))
	}
	hot := int(float64(*streams) * *hotFrac)
	if hot < 1 {
		hot = 1
	}

	dir := *stateDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "benchscale-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	store, err := persist.Open(dir)
	if err != nil {
		fatal(err)
	}
	defer store.Close()

	// Baseline before any pool exists, so the gate measures everything the
	// serving stack adds.
	runtime.GC()
	baseline := PhaseStats{Goroutines: runtime.NumGoroutine(), HeapMB: heapMB()}

	sp := streamad.NewScoringPool(*workers)
	defer sp.Close()
	tp := streamad.NewTrainerPool(*trainSlots)
	defer tp.Close()
	det := streamad.Config{
		Model: streamad.ModelARIMA, Task1: streamad.TaskSlidingWindow,
		Task2: streamad.TaskMuSigma, Score: streamad.ScoreRaw,
		Channels: *channels, Window: 8, TrainSize: 16, WarmupVectors: 16,
		Seed: *seed, AsyncFineTune: true, TrainerPool: tp,
	}
	reg, err := ingest.New(ingest.Config{
		NewDetector: func(id string) (ingest.Stepper, error) {
			c := det
			c.TrainerKey = id
			return streamad.New(c)
		},
		Shards:     64,
		MaxStreams: *streams,
		StreamTTL:  *streamTTL,
		WarmAfter:  *warmAfter,
		Store:      store,
		ScorePool:  sp,
	})
	if err != nil {
		fatal(err)
	}
	defer reg.Close()

	// Phase 1: register the whole fleet (everything lands hot-resident).
	regStart := time.Now()
	if err := drive(reg, *producers, func(p, nProducers int) error {
		buf := make([]float64, *channels)
		for i := p; i < *streams; i += nProducers {
			id := streamID(i)
			for k := 0; k < *registerObs; k++ {
				if _, err := reg.Observe(id, synth(buf, i, k, *seed)); err != nil {
					return fmt.Errorf("register %s: %w", id, err)
				}
			}
		}
		return nil
	}); err != nil {
		fatal(err)
	}
	regSecs := time.Since(regStart).Seconds()
	regEnd := time.Now()
	registered := measure(reg)

	// Phase 2: fast-forward the whole fleet to warm. The sweep uses a
	// synthetic "now" anchored just past the registration mark — exactly
	// the unit tests' idiom — so the outcome is the same whether the
	// page-out sweep takes milliseconds or minutes: everything touched
	// during registration demotes, full stop. (At fleet scale the sweep
	// itself is the measured quantity: page_out_per_sec.)
	demoteStart := time.Now()
	demoted := reg.PageIdle(regEnd.Add(*warmAfter))
	demoteSecs := time.Since(demoteStart).Seconds()
	warm := measure(reg)

	// Phase 3: steady state. Only the hot set sees traffic; each hot
	// stream's first observe transparently pages it back in, so after this
	// phase the hot tier is exactly the working set.
	var steadyObs atomic.Uint64
	steadyStart := time.Now()
	if err := drive(reg, *producers, func(p, nProducers int) error {
		buf := make([]float64, *channels)
		for k := *registerObs; time.Since(steadyStart) < *steadyFor; k++ {
			for i := p; i < hot; i += nProducers {
				if _, err := reg.Observe(streamID(i), synth(buf, i, k, *seed)); err != nil {
					return fmt.Errorf("steady %s: %w", streamID(i), err)
				}
				steadyObs.Add(1)
			}
		}
		return nil
	}); err != nil {
		fatal(err)
	}
	steadySecs := time.Since(steadyStart).Seconds()

	// Phase 4: cold-evict the idle 99%. Anchoring the cutoff at the
	// steady-phase start evicts exactly the streams that saw no steady
	// traffic, however long the sweep takes — the hot set survives by
	// construction, not by racing the clock.
	evictStart := time.Now()
	evicted := reg.EvictIdle(steadyStart.Add(*streamTTL))
	evictSecs := time.Since(evictStart).Seconds()
	steady := measure(reg)

	st := reg.Stats()
	rep := Report{
		Streams: *streams, HotStreams: hot, HotFraction: round3(*hotFrac),
		Channels: *channels, RegisterObs: *registerObs,
		ScoreWorkers: sp.Workers(), TrainSlots: tp.Slots(),
		WarmAfter: warmAfter.String(), StreamTTL: streamTTL.String(),
		Baseline: baseline, Registered: registered, Warm: warm, Steady: steady,
		RegisterSeconds:    round3(regSecs),
		RegisterVecPerSec:  round3(float64(*streams**registerObs) / regSecs),
		DemotedStreams:     demoted,
		PageOutPerSec:      round3(float64(demoted) / demoteSecs),
		SteadySeconds:      round3(steadySecs),
		SteadyObservations: steadyObs.Load(),
		SteadyVecPerSec:    round3(float64(steadyObs.Load()) / steadySecs),
		EvictedStreams:     evicted,
		EvictPerSec:        round3(float64(evicted) / evictSecs),
		Transitions: TransitionStats{
			HotToWarm: st.HotToWarm, WarmToHot: st.WarmToHot,
			WarmToCold: st.WarmToCold, HotToCold: st.HotToCold,
			ColdToHot: st.ColdToHot,
		},
		TrainerPool: TrainerStats{
			Slots:     tp.Slots(),
			Completed: tp.Stats().Completed,
			Canceled:  tp.Stats().Canceled,
		},
	}

	g := &rep.Gates
	g.MaxExtraGoroutines = sp.Workers() + tp.Slots() + *goroSlack
	g.ExtraGoroutines = steady.Goroutines - baseline.Goroutines
	g.GoroutinesOK = g.ExtraGoroutines <= g.MaxExtraGoroutines
	g.MaxResident = *maxResident
	if g.MaxResident == 0 {
		g.MaxResident = 2*hot + 64
	}
	g.ResidentOK = steady.Resident <= g.MaxResident
	g.TiersConsistent = steady.HotTier+steady.WarmTier == steady.Resident
	g.PromotionsOK = st.WarmToHot >= uint64(hot)
	g.MaxHeapFraction = round3(*maxHeapFrac)
	if registered.HeapMB > 0 {
		g.HeapFraction = round3(steady.HeapMB / registered.HeapMB)
	}
	g.HeapOK = g.HeapFraction <= g.MaxHeapFraction
	g.Pass = g.GoroutinesOK && g.ResidentOK && g.TiersConsistent && g.PromotionsOK && g.HeapOK

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
	} else {
		os.Stdout.Write(buf)
	}
	fmt.Fprintf(os.Stderr,
		"benchscale: %d streams, %d hot: goroutines %d→%d (cap +%d), resident %d→%d (cap %d), heap %.1fMB→%.1fMB (cap %.0f%%)\n",
		*streams, hot, baseline.Goroutines, steady.Goroutines, g.MaxExtraGoroutines,
		registered.Resident, steady.Resident, g.MaxResident,
		registered.HeapMB, steady.HeapMB, g.MaxHeapFraction*100)
	if !g.Pass {
		fmt.Fprintln(os.Stderr, "benchscale: FAIL — a scale gate was missed (see gates in the report)")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchscale: PASS")
}

// drive fans fn out over n producer goroutines and joins them, returning
// the first error.
//
//streamad:lifecycle — producers are joined before drive returns.
func drive(_ *ingest.Registry, n int, fn func(p, nProducers int) error) error {
	if n < 1 {
		n = 1
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = fn(p, n)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measure snapshots the process and registry shape after a GC, so heap
// numbers compare retained state across phases.
func measure(r *ingest.Registry) PhaseStats {
	runtime.GC()
	st := r.Stats()
	return PhaseStats{
		Goroutines:  runtime.NumGoroutine(),
		HeapMB:      heapMB(),
		Resident:    st.Streams,
		HotTier:     st.HotStreams,
		WarmTier:    st.WarmStreams,
		ColdTier:    st.ColdStreams,
		PoolWorkers: st.ScorePool.Workers,
	}
}

func heapMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return round3(float64(m.HeapAlloc) / (1 << 20))
}

func streamID(i int) string { return fmt.Sprintf("stream-%05d", i) }

// synth is a cheap deterministic waveform: distinct per stream and
// channel, drifting with the step index.
func synth(dst []float64, stream, step int, seed int64) []float64 {
	base := float64(stream%97) * 0.013
	for c := range dst {
		dst[c] = base + math.Sin(float64(step)*0.17+float64(c)+float64(seed)*0.01)
	}
	return dst
}

func round3(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return math.Round(f*1000) / 1000
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
