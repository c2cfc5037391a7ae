package lint

import (
	"go/types"
	"reflect"
)

// A Fact is a unit of per-object knowledge an analyzer computes in one
// package and consumes in another — the mechanism that lets hotalloc see
// through a cross-package call. The design mirrors
// golang.org/x/tools/go/analysis object facts: an analyzer exports facts
// while analyzing a package and imports facts attached to imported
// objects. Facts are pointers to structs and live in memory for the one
// dependency-ordered walk RunModule makes.
type Fact interface {
	// AFact is a marker method; it has no behaviour.
	AFact()
}

// FactSet holds every fact exported during a run, keyed by (analyzer,
// package path, object path, fact type). The zero value is not usable;
// use NewFactSet.
type FactSet struct {
	facts map[factKey]Fact
}

type factKey struct {
	analyzer string
	pkg      string
	obj      string // objectPath
	typ      reflect.Type
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{facts: make(map[factKey]Fact)}
}

// objectPath names an object within its package: "F" for a
// package-level function or type, "T.M" for a method (receiver
// pointer-ness is erased — a method set has unique names either way).
func objectPath(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named := namedRecvType(sig.Recv().Type()); named != nil {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

// namedRecvType strips one level of pointer and returns the named
// receiver type, or nil for anonymous receivers.
func namedRecvType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func (p *Pass) keyFor(obj types.Object, f Fact) factKey {
	return factKey{analyzer: p.Analyzer.Name, pkg: obj.Pkg().Path(), obj: objectPath(obj), typ: reflect.TypeOf(f)}
}

// ExportObjectFact attaches a fact to obj, visible to later passes of
// the same analyzer over packages that import this one.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	p.facts.facts[p.keyFor(obj, f)] = f
}

// ImportObjectFact copies the fact attached to obj into f (a pointer to
// the same concrete type) and reports whether one exists. It sees facts
// exported by this pass and by the same analyzer's passes over
// dependency packages.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	got, ok := p.facts.facts[p.keyFor(obj, f)]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}
