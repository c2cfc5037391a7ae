package lint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a unit of per-object knowledge an analyzer computes in one
// package and consumes in another — the mechanism that lets hotalloc see
// through a cross-package call. The design mirrors
// golang.org/x/tools/go/analysis object facts: an analyzer declares its
// fact types up front (FactTypes), exports facts while analyzing a
// package, and imports facts attached to imported objects.
//
// Facts must be gob-serializable pointers-to-struct with exported
// fields: in `go vet -vettool` mode each compilation unit runs in its
// own process, and facts cross the process boundary through the vetx
// files the go command threads between units.
type Fact interface {
	// AFact is a marker method; it has no behaviour.
	AFact()
}

// factStore holds every fact exported while analyzing a module (or,
// in vet mode, this unit plus everything inherited from dependency
// vetx files). Facts are keyed by (analyzer, package path, object path,
// fact type).
type factStore struct {
	facts map[factKey]Fact
}

type factKey struct {
	analyzer string
	pkg      string
	obj      string // objectPath
	typ      reflect.Type
}

func newFactStore() *factStore {
	return &factStore{facts: make(map[factKey]Fact)}
}

// objectPath names an object within its package stably across
// processes: "F" for a package-level function or type, "T.M" for a
// method (receiver pointer-ness is erased — a method set has unique
// names either way).
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

func (s *factStore) key(analyzer string, pkgPath, objPath string, f Fact) factKey {
	return factKey{analyzer: analyzer, pkg: pkgPath, obj: objPath, typ: reflect.TypeOf(f)}
}

func (s *factStore) export(analyzer, pkgPath, objPath string, f Fact) {
	s.facts[s.key(analyzer, pkgPath, objPath, f)] = f
}

// lookup copies the stored fact into dst (a pointer to the same
// concrete type) and reports whether one was found.
func (s *factStore) lookup(analyzer, pkgPath, objPath string, dst Fact) bool {
	f, ok := s.facts[s.key(analyzer, pkgPath, objPath, dst)]
	if !ok {
		return false
	}
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// ---- Pass fact surface ----

// ExportObjectFact attaches a fact to obj, visible to later passes of
// the same analyzer over packages that import this one.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	p.facts.export(p.Analyzer.Name, obj.Pkg().Path(), objectPath(obj), f)
}

// ImportObjectFact copies the fact attached to obj into f and reports
// whether one exists. It sees facts exported by this pass and by the
// same analyzer's passes over dependency packages.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return p.facts.lookup(p.Analyzer.Name, obj.Pkg().Path(), objectPath(obj), f)
}

// ---- vetx serialization ----

// vetxRecord is one serialized fact in a vetx file. The file carries
// the full transitive fact set known after analyzing a unit (own facts
// plus everything inherited), so a dependent unit only needs the vetx
// of its direct imports.
type vetxRecord struct {
	Analyzer string
	PkgPath  string
	ObjPath  string
	FactType string
	Data     []byte
}

// factTypeRegistry maps the stable name of each declared fact type to
// its reflect.Type, built from the FactTypes of the analyzers in play.
func factTypeRegistry(analyzers []*Analyzer) map[string]reflect.Type {
	reg := make(map[string]reflect.Type)
	for _, a := range analyzers {
		for _, proto := range a.FactTypes {
			reg[factTypeName(proto)] = reflect.TypeOf(proto)
		}
	}
	return reg
}

func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	return t.Name()
}

// EncodeFacts serializes the store for a vetx file, sorted for
// deterministic output.
func (s *factStore) encode() ([]byte, error) {
	records := make([]vetxRecord, 0, len(s.facts))
	for k, f := range s.facts {
		var val bytes.Buffer
		if err := gob.NewEncoder(&val).EncodeValue(reflect.ValueOf(f).Elem()); err != nil {
			return nil, fmt.Errorf("lint: encode fact %T for %s.%s: %w", f, k.pkg, k.obj, err)
		}
		records = append(records, vetxRecord{
			Analyzer: k.analyzer,
			PkgPath:  k.pkg,
			ObjPath:  k.obj,
			FactType: factTypeName(f),
			Data:     val.Bytes(),
		})
	}
	sort.Slice(records, func(i, j int) bool {
		a, b := records[i], records[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		if a.ObjPath != b.ObjPath {
			return a.ObjPath < b.ObjPath
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.FactType < b.FactType
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(records); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeFacts merges a vetx file into the store. Facts whose type is
// not in the registry (an analyzer not selected for this run) are
// skipped, matching the go command's behaviour of caching more than a
// given invocation consumes.
func (s *factStore) decode(data []byte, registry map[string]reflect.Type) error {
	if len(data) == 0 {
		return nil
	}
	var records []vetxRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&records); err != nil {
		return fmt.Errorf("lint: corrupt vetx facts: %w", err)
	}
	for _, r := range records {
		typ, ok := registry[r.FactType]
		if !ok {
			continue
		}
		val := reflect.New(typ.Elem()) // typ is *T; allocate a T
		if err := gob.NewDecoder(bytes.NewReader(r.Data)).DecodeValue(val.Elem()); err != nil {
			return fmt.Errorf("lint: decode fact %s for %s.%s: %w", r.FactType, r.PkgPath, r.ObjPath, err)
		}
		f, ok := val.Interface().(Fact)
		if !ok {
			return fmt.Errorf("lint: registered fact type %s does not implement Fact", r.FactType)
		}
		s.facts[factKey{analyzer: r.Analyzer, pkg: r.PkgPath, obj: r.ObjPath, typ: typ}] = f
	}
	return nil
}

// FactSet carries facts across RunPackageFacts calls and process
// boundaries. The zero value is not usable; use NewFactSet.
type FactSet struct {
	store *factStore
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{store: newFactStore()}
}

// Encode serializes every fact in the set for a vetx file.
func (fs *FactSet) Encode() ([]byte, error) {
	return fs.store.encode()
}

// Decode merges vetx-file bytes into the set; analyzers declares the
// fact types in play.
func (fs *FactSet) Decode(data []byte, analyzers []*Analyzer) error {
	return fs.store.decode(data, factTypeRegistry(analyzers))
}

// Len reports the number of facts in the set.
func (fs *FactSet) Len() int { return len(fs.store.facts) }
