// Package tier0 implements the cheap screening tier of the detector
// cascade: a family of streaming detectors whose Step costs nanoseconds,
// not the microseconds of the ML pipelines (internal/core). Calikus et
// al.'s no-free-lunch result argues for fleets of cheap specialized
// detectors over one heavy model; this package supplies the cheap end —
// EWMA residual, moving z-score, streaming Hampel (median/MAD over a
// ring) and sliding-window density — as first-class detector nodes
// (core.Node) with full Save/Load state, so a cascade(...) spec can
// screen every vector and reserve the heavy members for the few that
// look suspicious.
//
// All four detectors share the same output convention: Nonconformity is
// the raw deviation statistic (a robust z-score, or a raw distance for
// Density) and Score maps it into [0,1) so that a typical in-distribution
// vector sits near 0 and three-sigma-equivalent deviations near 0.5 —
// the same d/(d+scale) mapping the kNN baseline uses. Non-finite input
// values are skipped per channel rather than folded into the running
// statistics, so one NaN cannot poison a gate permanently.
package tier0

import (
	"fmt"
	"math"
	"math/rand"

	"streamad/internal/core"
	"streamad/internal/randstate"
	"streamad/internal/window"
)

// Config parameterizes the tier-0 detectors. Channels is required;
// everything else has defaults chosen for screening (short windows, fast
// adaptation).
type Config struct {
	// Channels is the stream dimensionality N (required).
	Channels int
	// Window is the per-channel ring length of ZScore/Hampel and the
	// vector ring length of Density (default 64; Hampel rounds up to odd).
	Window int
	// Alpha is the EWMA smoothing factor, also used for Density's
	// distance-scale adaptation (default 0.05).
	Alpha float64
	// Sample is the number of window rows Density measures the distance
	// to per step (default 16; ≥ Window scans the whole ring and draws
	// no random values).
	Sample int
	// Warmup is the number of finite samples a channel must contribute
	// before EWMA scores it (default 16).
	Warmup int
	// Seed drives Density's row sampling (default 1).
	Seed int64
}

const (
	// zHalf is the z-score mapped to 0.5: Score = z/(z+zHalf), so a
	// three-sigma deviation scores 0.5 and larger ones approach 1.
	zHalf = 3.0
	eps   = 1e-9
)

func (c *Config) fill() error {
	if c.Channels <= 0 {
		return fmt.Errorf("tier0: Channels must be positive, got %d", c.Channels)
	}
	if c.Window == 0 {
		c.Window = 64
	}
	if c.Window < 4 {
		return fmt.Errorf("tier0: Window must be at least 4, got %d", c.Window)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("tier0: Alpha must be in (0,1), got %g", c.Alpha)
	}
	if c.Sample == 0 {
		c.Sample = 16
	}
	if c.Sample < 1 {
		return fmt.Errorf("tier0: Sample must be positive, got %d", c.Sample)
	}
	if c.Warmup == 0 {
		c.Warmup = 16
	}
	if c.Warmup < 2 {
		return fmt.Errorf("tier0: Warmup must be at least 2, got %d", c.Warmup)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// zMap maps a nonnegative deviation statistic into [0,1).
func zMap(z float64) float64 { return z / (z + zHalf) }

// finite reports whether x is a usable sample.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// leaf is the part of the core.Node contract no tier-0 detector varies:
// a step counter, no model to fine-tune, no children.
type leaf struct {
	steps int
}

// Steps returns the number of stream vectors consumed.
func (l *leaf) Steps() int { return l.steps }

// FineTunes implements core.Node; tier-0 detectors never fine-tune.
func (l *leaf) FineTunes() int { return 0 }

// Children implements core.Node.
func (l *leaf) Children() []core.Node { return nil }

// EWMA scores each vector by the largest per-channel residual against an
// exponentially weighted running mean, normalized by an EWMA of the
// squared residual — the classic control-chart detector.
type EWMA struct {
	leaf
	alpha  float64
	warmup int
	mean   []float64
	vari   []float64
	cnt    []int // finite samples seen per channel
}

// NewEWMA returns an EWMA residual detector.
func NewEWMA(cfg Config) (*EWMA, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &EWMA{
		alpha:  cfg.Alpha,
		warmup: cfg.Warmup,
		mean:   make([]float64, cfg.Channels),
		vari:   make([]float64, cfg.Channels),
		cnt:    make([]int, cfg.Channels),
	}, nil
}

// Step consumes the next stream vector. ok becomes true once at least one
// channel has observed Warmup finite samples.
func (d *EWMA) Step(s []float64) (core.Result, bool) {
	if len(s) != len(d.mean) {
		panic("tier0: vector dimension mismatch")
	}
	d.steps++
	var maxz float64
	scored := false
	for i, x := range s {
		if !finite(x) {
			continue
		}
		if d.cnt[i] == 0 {
			d.mean[i] = x
			d.cnt[i] = 1
			continue
		}
		r := x - d.mean[i]
		if d.cnt[i] >= d.warmup {
			z := math.Abs(r) / math.Sqrt(d.vari[i]+eps)
			if z > maxz {
				maxz = z
			}
			scored = true
		}
		d.mean[i] += d.alpha * r
		d.vari[i] = (1-d.alpha)*d.vari[i] + d.alpha*r*r
		d.cnt[i]++
	}
	if !scored {
		return core.Result{}, false
	}
	return core.Result{Nonconformity: maxz, Score: zMap(maxz)}, true
}

// ZScore scores each vector by the largest per-channel z-score against
// the mean and variance of that channel's previous Window samples
// (maintained as rolling sums over a ring; the current sample is scored
// before it enters the window).
type ZScore struct {
	leaf
	w     int
	rings []*window.Ring
	sum   []float64
	sumsq []float64
}

// NewZScore returns a moving z-score detector.
func NewZScore(cfg Config) (*ZScore, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	d := &ZScore{
		w:     cfg.Window,
		rings: make([]*window.Ring, cfg.Channels),
		sum:   make([]float64, cfg.Channels),
		sumsq: make([]float64, cfg.Channels),
	}
	for i := range d.rings {
		d.rings[i] = window.NewRing(cfg.Window)
	}
	return d, nil
}

// Step consumes the next stream vector. ok becomes true once at least one
// channel ring is full.
func (d *ZScore) Step(s []float64) (core.Result, bool) {
	if len(s) != len(d.rings) {
		panic("tier0: vector dimension mismatch")
	}
	d.steps++
	var maxz float64
	scored := false
	for i, x := range s {
		if !finite(x) {
			continue
		}
		r := d.rings[i]
		if r.Full() {
			n := float64(d.w)
			mean := d.sum[i] / n
			v := d.sumsq[i]/n - mean*mean
			if v < 0 {
				v = 0
			}
			z := math.Abs(x-mean) / math.Sqrt(v+eps)
			if z > maxz {
				maxz = z
			}
			scored = true
		}
		ev, wasFull := r.Push(x)
		if wasFull {
			d.sum[i] -= ev
			d.sumsq[i] -= ev * ev
		}
		d.sum[i] += x
		d.sumsq[i] += x * x
	}
	if !scored {
		return core.Result{}, false
	}
	return core.Result{Nonconformity: maxz, Score: zMap(maxz)}, true
}

// Hampel scores each vector by the largest per-channel robust z-score
// |x−median| / (1.4826·MAD) over the channel's previous Window samples —
// the streaming Hampel filter. Median and MAD are exact: each channel
// keeps its window both as a ring (for eviction order) and as a sorted
// array maintained incrementally, and the MAD is found by a two-pointer
// walk outward from the median, so a step costs O(Window) with no
// per-step sort.
type Hampel struct {
	leaf
	w      int
	rings  []*window.Ring
	sorted [][]float64 // per channel: the ring's values in ascending order
	ns     []int       // per channel: len(sorted[i])
}

// NewHampel returns a streaming Hampel detector; an even Window is
// rounded up to the next odd length so the median is exact.
func NewHampel(cfg Config) (*Hampel, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	w := cfg.Window | 1
	d := &Hampel{
		w:      w,
		rings:  make([]*window.Ring, cfg.Channels),
		sorted: make([][]float64, cfg.Channels),
		ns:     make([]int, cfg.Channels),
	}
	for i := range d.rings {
		d.rings[i] = window.NewRing(w)
		d.sorted[i] = make([]float64, w)
	}
	return d, nil
}

// searchFloat returns the first index in a[:n] not less than x.
func searchFloat(a []float64, n int, x float64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// madFrom returns the median absolute deviation of sorted[:w] around its
// median med, walking two pointers outward from the median position and
// taking the (w/2+1)-th smallest deviation. The array being sorted makes
// both arms monotone in |v−med|.
func madFrom(sorted []float64, w int, med float64) float64 {
	mid := w / 2
	li, ri := mid, mid+1
	var mad float64
	for k := 0; k <= mid; k++ {
		if li >= 0 && (ri >= w || med-sorted[li] <= sorted[ri]-med) {
			mad = med - sorted[li]
			li--
		} else {
			mad = sorted[ri] - med
			ri++
		}
	}
	return mad
}

// Step consumes the next stream vector. ok becomes true once at least one
// channel ring is full.
func (d *Hampel) Step(s []float64) (core.Result, bool) {
	if len(s) != len(d.rings) {
		panic("tier0: vector dimension mismatch")
	}
	d.steps++
	var maxz float64
	scored := false
	for i, x := range s {
		if !finite(x) {
			continue
		}
		r := d.rings[i]
		srt := d.sorted[i]
		if r.Full() {
			med := srt[d.w/2]
			mad := madFrom(srt, d.w, med)
			z := math.Abs(x-med) / (1.4826*mad + eps)
			if z > maxz {
				maxz = z
			}
			scored = true
		}
		ev, wasFull := r.Push(x)
		n := d.ns[i]
		if wasFull {
			// Remove the evicted value from the sorted view; the exact
			// bits were inserted, so equality search finds it.
			pos := searchFloat(srt, n, ev)
			copy(srt[pos:], srt[pos+1:n])
			n--
		}
		pos := searchFloat(srt, n, x)
		copy(srt[pos+1:n+1], srt[pos:n])
		srt[pos] = x
		d.ns[i] = n + 1
	}
	if !scored {
		return core.Result{}, false
	}
	return core.Result{Nonconformity: maxz, Score: zMap(maxz)}, true
}

// Density scores each vector by its mean Euclidean distance to Sample
// rows drawn from a ring of the last Window vectors, normalized by an
// EWMA of that distance — a sliding-window density estimate in the
// spirit of the kNN baseline, at a fixed per-step budget. Row sampling
// draws from a counted source, so the RNG position checkpoints with the
// detector.
type Density struct {
	leaf
	win   *window.VecRing
	k     int
	alpha float64
	scale float64
	src   *randstate.CountedSource
	rng   *rand.Rand // stateless wrapper over src, whose position Save/Load round-trips
}

// NewDensity returns a sliding-window density detector.
func NewDensity(cfg Config) (*Density, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	src := randstate.NewCountedSource(cfg.Seed + 5077)
	return &Density{
		win:   window.NewVecRing(cfg.Window, cfg.Channels),
		k:     cfg.Sample,
		alpha: cfg.Alpha,
		src:   src,
		rng:   rand.New(src),
	}, nil
}

// dist is the Euclidean distance.
func dist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Step consumes the next stream vector. ok becomes true once the vector
// ring is full; vectors with any non-finite component are skipped
// entirely (not scored, not stored).
func (d *Density) Step(s []float64) (core.Result, bool) {
	if len(s) != d.win.Dim() {
		panic("tier0: vector dimension mismatch")
	}
	d.steps++
	for _, x := range s {
		if !finite(x) {
			return core.Result{}, false
		}
	}
	if !d.win.Full() {
		d.win.Push(s)
		return core.Result{}, false
	}
	n := d.win.Len()
	var sum float64
	k := d.k
	if k >= n {
		k = n
		for i := 0; i < n; i++ {
			sum += dist(s, d.win.At(i))
		}
	} else {
		for j := 0; j < k; j++ {
			sum += dist(s, d.win.At(d.rng.Intn(n)))
		}
	}
	dm := sum / float64(k)
	if d.scale == 0 {
		d.scale = dm + eps
	}
	score := dm / (dm + d.scale)
	d.scale = (1-d.alpha)*d.scale + d.alpha*dm
	if d.scale < eps {
		d.scale = eps
	}
	d.win.Push(s)
	return core.Result{Nonconformity: dm, Score: score}, true
}
