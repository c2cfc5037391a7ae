package streamad

import (
	"flag"
	"strings"
)

// Spec is a parsed detector spec, one node of the spec tree: a
// PipelineSpec or Tier0Kind leaf, or an EnsembleSpec or CascadeSpec over
// child specs. ParseSpec produces one from a string.
type Spec interface {
	// String renders the canonical form, a fixed point of ParseSpec.
	String() string
	// Build assembles the detector the spec describes, children first.
	// base supplies everything a spec does not say (Channels, Window,
	// Seed, the pools, …); its Model/Task1/Task2/Score are overridden.
	Build(base Config) (StreamDetector, error)
	kind() specKind
}

// specKind is what a spec, or a lexed item about to become one, is.
type specKind uint8

const (
	kindPipeline specKind = 1 << iota // model+task1+task2[+score][+async]
	kindModel                         // a bare model name, short for model+sw+musigma+al
	kindTier0
	kindEnsemble
	kindCascade
)

// The position table: which kinds each slot of the spec tree admits. The
// parser checks it on the way down and the builders check it again, since
// a spec tree can also be assembled by hand.
const (
	atRoot   = kindPipeline | kindTier0 | kindEnsemble | kindCascade
	atMember = kindPipeline                            // ensemble(member, member, ...)
	atGate   = kindTier0                               // cascade(gate, ...)
	atHeavy  = kindPipeline | kindModel | kindEnsemble // cascade(..., heavy, ...): cascades do not nest
)

// kindNames are the kinds in bit order; the two combinators' are also
// their call names in the grammar.
var kindNames = [...]string{"pipeline", "bare model", "tier-0 detector", "ensemble", "cascade"}

// String names the kinds in the set, "pipeline or bare model or ensemble".
func (k specKind) String() string {
	var names []string
	for i, name := range kindNames {
		if k&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, " or ")
}

// NewFromSpec builds a detector from a spec string: a single pipeline
// ("usad+sw+musigma+al"), an ensemble
// ("ensemble(arima+sw+kswin, usad+ares+regular; agg=median)"), a
// screening cascade ("cascade(zscore, knn; admit=0.05)") or a standalone
// tier-0 detector ("hampel"). It is ParseSpec, then Spec.Build.
func NewFromSpec(spec string, base Config) (StreamDetector, error) {
	sp, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return sp.Build(base)
}

// SpecFlags declares the CLIs' detector-selection flags on fs — -spec and,
// for scripts that pass the parts separately, -model/-task1/-task2/-score
// with help and defaults read from the name tables — and returns the
// function that yields the selected spec once fs is parsed: the four parts
// are just another spelling of a pipeline spec, so there is one build path.
func SpecFlags(fs *flag.FlagSet) func() string {
	def := PipelineSpec{Model: ModelUSAD, Score: ScoreLikelihood}
	spec := fs.String("spec", "", `detector spec, e.g. "arima+sw+kswin", "ensemble(arima+sw+kswin, usad+ares+regular; agg=median)" or "cascade(zscore, knn)"; overrides -model/-task1/-task2/-score`)
	model := fs.String("model", modelNames.Spec(def.Model), "model: "+modelNames.Help())
	task1 := fs.String("task1", task1Names.Spec(def.Task1), "training-set strategy: "+task1Names.Help())
	task2 := fs.String("task2", task2Names.Spec(def.Task2), "drift strategy: "+task2Names.Help())
	score := fs.String("score", scoreNames.Spec(def.Score), "anomaly score: "+scoreNames.Help())
	return func() string {
		if *spec != "" {
			return *spec
		}
		return *model + "+" + *task1 + "+" + *task2 + "+" + *score
	}
}

// asNode keeps a constructor's nil *T from becoming a non-nil
// StreamDetector next to its error.
func asNode[T StreamDetector](det T, err error) (StreamDetector, error) {
	if err != nil {
		return nil, err
	}
	return det, nil
}
