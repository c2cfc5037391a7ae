// The scenario spec grammar: one compact string names a whole
// adversarial workload, mirroring the pipeline/ensemble grammar of the
// root package's parse.go. A spec is a nest of injector calls around a
// base generator:
//
//	base(corpus=gauss,channels=4,p=0.02,pool=512)
//	drift(base(corpus=daphnet,p=0.01,pool=1024),kind=abrupt,at=300,shift=3)
//	reorder(dropout(season(drift(base(corpus=smd,p=0.01,pool=2048),
//	        kind=recurring,at=400,span=120,period=500),period=200,amp=0.8),
//	        at=600,span=50,channels=2,mode=stuck),p=0.05)
//
// Content injectors (drift, season, scale, dropout, burst) wrap the
// Stream; timing injectors (jitter, late, reorder) are hoisted into the
// scenario's TimingConfig because they perturb the send schedule, not
// the vectors. Parse validates eagerly; NewStream(seed) builds a fresh,
// bit-identically replayable Stream — every layer draws from its own
// seed derived from (seed, layer name, depth).
package scenario

import (
	"fmt"
	"time"

	"streamad/internal/spec"
)

// Scenario is a parsed spec: a Stream factory plus the timing faults.
type Scenario struct {
	// Spec is the canonical input string.
	Spec string
	// Timing holds the hoisted timing-fault configuration (zero when the
	// spec names none).
	Timing TimingConfig

	root *node
}

// node is one call of the grammar: name(inner?, k=v, ...).
type node struct {
	name   string
	inner  *node
	params []*spec.Node
}

// Parse parses and validates a scenario spec. The returned Scenario is
// immutable and safe for concurrent NewStream calls.
func Parse(s string) (*Scenario, error) {
	root, err := spec.Parse(s)
	var chain *node
	if err == nil {
		chain, err = toLayer(root)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: spec %q: %w", s, err)
	}
	sc := &Scenario{Spec: s, root: chain}
	// Validate the whole chain (and collect timing faults) by building
	// a throwaway stream now, so a bad spec fails at parse time.
	if err := sc.hoistTiming(); err != nil {
		return nil, err
	}
	if _, err := sc.NewStream(1); err != nil {
		return nil, err
	}
	return sc, nil
}

// toLayer converts one lexed call, inner layers included, checking the
// grammar's shape: name(inner?, k=v, ...) with no ";" section, where the
// nested scenario comes first and exactly base(...) has none.
func toLayer(c *spec.Node) (*node, error) {
	switch {
	case !c.IsCall:
		return nil, fmt.Errorf(`expected "(" after %q`, c.Name)
	case c.Opts != nil:
		return nil, fmt.Errorf(`%s: expected "," or ")", found ";"`, c.Name)
	}
	n := &node{name: c.Name, params: c.Args}
	if len(c.Args) > 0 && c.Args[0].IsCall {
		inner, err := toLayer(c.Args[0])
		if err != nil {
			return nil, err
		}
		n.inner, n.params = inner, c.Args[1:]
	}
	for _, p := range n.params {
		switch {
		case !p.IsCall:
		case n.inner != nil:
			return nil, fmt.Errorf("%s: more than one nested scenario", n.name)
		default:
			return nil, fmt.Errorf("%s: the nested scenario must be the first argument", n.name)
		}
	}
	if n.name == "base" && n.inner != nil {
		return nil, fmt.Errorf("base(...) cannot nest another scenario")
	}
	if n.name != "base" && n.inner == nil {
		return nil, fmt.Errorf("%s(...) needs a nested scenario as its first argument", n.name)
	}
	return n, nil
}

// hoistTiming walks the chain once, accumulating jitter/late/reorder
// layers into sc.Timing and rejecting duplicates.
func (sc *Scenario) hoistTiming() error {
	seen := map[string]bool{}
	for n := sc.root; n != nil; n = n.inner {
		if !isTimingName(n.name) {
			continue
		}
		if seen[n.name] {
			return fmt.Errorf("scenario: spec %q: duplicate %s(...) layer", sc.Spec, n.name)
		}
		seen[n.name] = true
		args := spec.NewOptions(n.name, n.params)
		switch n.name {
		case "jitter":
			sc.Timing.JitterFrac = args.Float("frac", 0.2)
		case "late":
			sc.Timing.LateProb = args.Float("p", 0.01)
			sc.Timing.LateDelay = args.Duration("delay", 250*time.Millisecond)
		case "reorder":
			sc.Timing.ReorderProb = args.Float("p", 0.05)
		}
		if err := args.Finish(); err != nil {
			return fmt.Errorf("scenario: spec %q: %w", sc.Spec, err)
		}
	}
	return sc.Timing.validate()
}

func isTimingName(name string) bool {
	return name == "jitter" || name == "late" || name == "reorder"
}

// NewStream builds a fresh Stream for this scenario. Equal (spec, seed)
// pairs produce bit-identical streams; different seeds produce
// independently contaminated streams of the same shape — one per fleet
// member.
func (sc *Scenario) NewStream(seed int64) (Stream, error) {
	s, err := sc.build(sc.root, seed, 0)
	if err != nil {
		return nil, fmt.Errorf("scenario: spec %q: %w", sc.Spec, err)
	}
	return s, nil
}

// build constructs the stream for n (inner layers first). depth salts
// the derived seed so two same-named layers draw differently.
func (sc *Scenario) build(n *node, seed int64, depth int) (Stream, error) {
	layerSeed := DeriveSeed(seed, fmt.Sprintf("%s/%d", n.name, depth))
	if n.name == "base" {
		return buildBase(n, layerSeed)
	}
	inner, err := sc.build(n.inner, seed, depth+1)
	if err != nil {
		return nil, err
	}
	if isTimingName(n.name) {
		return inner, nil // hoisted into TimingConfig
	}
	tr, err := buildTransform(n, layerSeed)
	if err != nil {
		return nil, err
	}
	return tr(inner)
}

// buildBase interprets base(corpus=..., ...).
func buildBase(n *node, seed int64) (Stream, error) {
	args := spec.NewOptions(n.name, n.params)
	corpus := args.Str("corpus", "gauss")
	prop := args.Float("p", 0.01)
	poolSize := args.Int("pool", 1024)
	var (
		pools Pools
		err   error
	)
	switch corpus {
	case "gauss":
		ch := args.Int("channels", 4)
		shift := args.Float("shift", 6)
		if err := args.Finish(); err != nil {
			return nil, err
		}
		pools, err = GaussPools(ch, poolSize, shift, DeriveSeed(seed, "pool"))
	default:
		length := args.Int("len", 2600)
		if err := args.Finish(); err != nil {
			return nil, err
		}
		pools, err = CorpusPools(corpus, length, DeriveSeed(seed, "pool"))
	}
	if err != nil {
		return nil, err
	}
	return NewGenerator(pools.Normal, pools.Anomaly, prop, poolSize, DeriveSeed(seed, "schedule"))
}

// buildTransform interprets one content-injector layer.
func buildTransform(n *node, seed int64) (Transform, error) {
	args := spec.NewOptions(n.name, n.params)
	var tr Transform
	switch n.name {
	case "drift":
		kind, err := ParseDriftKind(args.Str("kind", "abrupt"))
		if err != nil {
			return nil, err
		}
		tr = Drift(DriftConfig{
			Kind:     kind,
			At:       args.Int("at", 0),
			Span:     args.Int("span", 1),
			Period:   args.Int("period", 0),
			Shift:    args.Float("shift", 3),
			ScaleMul: args.Float("scale", 1),
			Mix:      args.Float("mix", 0),
		})
	case "season":
		tr = Season(args.Int("period", 256), args.Float("amp", 1))
	case "scale":
		tr = ScaleShift(args.Int("at", 0), args.Float("mul", 2))
	case "dropout":
		mode, err := ParseDropoutMode(args.Str("mode", "stuck"))
		if err != nil {
			return nil, err
		}
		tr = Dropout(DropoutConfig{
			At:       args.Int("at", 0),
			Span:     args.Int("span", 50),
			Period:   args.Int("period", 0),
			Channels: args.Int("channels", 1),
			Mode:     mode,
			Seed:     seed,
		})
	case "burst":
		tr = Burst(BurstConfig{
			At:     args.Int("at", 0),
			Span:   args.Int("span", 20),
			Period: args.Int("period", 0),
			Mag:    args.Float("mag", 6),
		})
	default:
		return nil, fmt.Errorf("unknown injector %q (want drift, season, scale, dropout, burst, jitter, late or reorder)", n.name)
	}
	if err := args.Finish(); err != nil {
		return nil, err
	}
	return tr, nil
}
