package streamad

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"streamad/internal/ensemble"
	"streamad/internal/spec"
)

// asyncToken is the pipeline grammar's trailing serve/train-split marker.
const asyncToken = "async"

// classify says what a lexed item is by its shape alone: a call is the
// combinator it names, a word with a "+" a pipeline, and a bare name the
// tier-0 detector or model it spells (else a pipeline, whose parser will
// explain what is missing). Zero means it is not a spec at all.
func classify(n *spec.Node) specKind {
	switch {
	case n.IsCall && n.Name == kindEnsemble.String():
		return kindEnsemble
	case n.IsCall && n.Name == kindCascade.String():
		return kindCascade
	case n.IsCall, n.IsOption:
		return 0
	case strings.Contains(n.Name, "+"):
		return kindPipeline
	}
	if _, err := tier0Names.Parse(n.Name); err == nil {
		return kindTier0
	}
	if _, err := modelNames.Parse(n.Name); err == nil {
		return kindModel
	}
	return kindPipeline
}

// ParseSpec parses a detector spec — every shape NewFromSpec accepts: a
// pipeline "model+task1+task2[+score][+async]", a tier-0 detector name, an
// "ensemble(pipeline, pipeline, ...; options)" or a "cascade(tier0, heavy,
// ...; options)" whose heavy members are pipelines, bare model names or
// ensembles — into its tree. Names are case-insensitive and whitespace
// around any token is ignored; EnsembleSpec and CascadeSpec document the
// options, each of which may be given once. DESIGN.md §7 "The spec tree"
// has the grammar in EBNF and the position table.
func ParseSpec(s string) (Spec, error) { return parseAt(s, atRoot) }

func parseAt(s string, admits specKind) (Spec, error) {
	n, err := spec.Parse(s)
	if err == nil {
		var sp Spec
		if sp, err = parseNode(n, admits); err == nil {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("streamad: spec %q: %w", s, err)
}

// ParseEnsembleSpec parses a spec that must be an ensemble(...); the frozen
// benchmark asks for its Members.
func ParseEnsembleSpec(s string) (EnsembleSpec, error) {
	sp, err := parseAt(s, kindEnsemble)
	es, _ := sp.(EnsembleSpec)
	return es, err
}

// IsEnsembleSpec reports whether s is written as an ensemble(...) call
// (its members may still fail to parse).
func IsEnsembleSpec(s string) bool {
	n, err := spec.Parse(s)
	return err == nil && classify(n) == kindEnsemble
}

// parseNode turns one lexed item into the spec it denotes, at a position
// admitting the given kinds.
func parseNode(n *spec.Node, admits specKind) (Spec, error) {
	k := classify(n)
	if k&admits == 0 {
		return nil, fmt.Errorf("%q: want a %v here", n.Name, admits)
	}
	switch k {
	case kindTier0:
		return tier0Names.Parse(n.Name)
	case kindModel:
		m, err := modelNames.Parse(n.Name)
		return PipelineSpec{Model: m, Task1: TaskSlidingWindow, Task2: TaskMuSigma, Score: ScoreLikelihood}, err
	case kindPipeline:
		return parsePipeline(n.Name)
	case kindEnsemble:
		return parseEnsemble(n)
	default:
		return parseCascade(n)
	}
}

func parsePipeline(word string) (PipelineSpec, error) {
	parts := strings.Split(word, "+")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	p := PipelineSpec{Score: ScoreLikelihood}
	if n := len(parts); n >= 4 && parts[n-1] == asyncToken {
		p.Async = true
		parts = parts[:n-1]
	}
	if len(parts) < 3 || len(parts) > 4 {
		return p, fmt.Errorf("pipeline %q: want model+task1+task2[+score][+%s]", word, asyncToken)
	}
	var errs [4]error
	p.Model, errs[0] = modelNames.Parse(parts[0])
	p.Task1, errs[1] = task1Names.Parse(parts[1])
	p.Task2, errs[2] = task2Names.Parse(parts[2])
	if len(parts) == 4 {
		p.Score, errs[3] = scoreNames.Parse(parts[3])
	}
	if err := errors.Join(errs[:]...); err != nil {
		return p, fmt.Errorf("pipeline %q: %w", word, err)
	}
	return p, nil
}

func parseEnsemble(n *spec.Node) (EnsembleSpec, error) {
	var es EnsembleSpec
	for _, a := range n.Args {
		m, err := parseNode(a, atMember)
		if err != nil {
			return es, fmt.Errorf("ensemble member: %w", err)
		}
		es.Members = append(es.Members, m.(PipelineSpec))
	}
	if len(es.Members) < 2 {
		return es, fmt.Errorf("ensemble: need at least 2 members, got %d", len(es.Members))
	}
	o := spec.NewOptions(n.Name, n.Opts)
	if o.Has("agg") {
		var err error
		if es.Agg, err = ensemble.AggNames.Parse(o.Str("agg", "")); err != nil {
			return es, err
		}
	}
	if es.Verdict = o.Float("verdict", 0); math.IsNaN(es.Verdict) || math.IsInf(es.Verdict, 0) {
		o.Bad("verdict", "a finite number")
	}
	if es.CounterCap = o.Int("cap", 0); o.Has("cap") && es.CounterCap < 1 {
		o.Bad("cap", "an integer ≥ 1")
	}
	es.PruneEnabled = o.Has("prune")
	if es.PruneBelow = o.Int("prune", 0); es.PruneEnabled && es.PruneBelow >= 0 {
		o.Bad("prune", "a negative integer")
	}
	return es, o.Finish()
}

func parseCascade(n *spec.Node) (CascadeSpec, error) {
	var cs CascadeSpec
	if len(n.Args) < 2 {
		return cs, fmt.Errorf("cascade: want a tier-0 gate and at least one heavy member")
	}
	gate, err := parseNode(n.Args[0], atGate)
	if err != nil {
		return cs, fmt.Errorf("cascade gate: %w", err)
	}
	cs.Gate = gate.(Tier0Kind)
	for _, a := range n.Args[1:] {
		h, err := parseNode(a, atHeavy)
		if err != nil {
			return cs, fmt.Errorf("cascade heavy member: %w", err)
		}
		cs.Heavy = append(cs.Heavy, h)
	}
	o := spec.NewOptions(n.Name, n.Opts)
	if cs.Admit = o.Float("admit", 0); o.Has("admit") && !(cs.Admit > 0 && cs.Admit < 1) {
		o.Bad("admit", "a rate in (0,1)")
	}
	if cs.Calib = o.Int("calib", 0); o.Has("calib") && cs.Calib < 8 {
		o.Bad("calib", "an integer ≥ 8")
	}
	if cs.GateWindow = o.Int("gatewin", 0); o.Has("gatewin") && cs.GateWindow < 4 {
		o.Bad("gatewin", "an integer ≥ 4")
	}
	return cs, o.Finish()
}
