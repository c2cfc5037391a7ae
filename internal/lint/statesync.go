package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// StateSync turns the stale-checkpoint bug class into a vet failure.
// The framework's durability story (snapshots, WAL tails, live
// migration, warm paging) rests on every detector restoring
// bit-identically, which dies silently the day someone adds a field —
// an optimizer moment, an RNG position, a model snapshot — and forgets
// to thread it through Save/Load. Before this analyzer each subsystem
// needed a hand-written runtime bit-identity test to catch that.
//
// For every named struct type that participates in checkpointing — it
// declares both a save-side method (Save, AppendBinary, MarshalBinary,
// PageOut) and a load-side one (Load, UnmarshalBinary, PageIn) — every
// field must be either:
//
//   - referenced somewhere in those methods (or in methods of the same
//     type they call, transitively within the package), i.e. it visibly
//     participates in the state round-trip; or
//   - annotated //streamad:transient <reason> on the field, declaring
//     it derived/scratch state that Load reconstructs or ignores.
//
// A transient annotation on a field that IS referenced by the state
// methods is also flagged, so annotations cannot rot into lies.
var StateSync = &Analyzer{
	Name: "statesync",
	Doc:  "flags checkpoint-type fields neither serialized by Save/Load nor annotated //streamad:transient",
	Run:  runStateSync,
}

// saveSideNames / loadSideNames classify the method names that make a
// type a checkpoint participant.
var saveSideNames = map[string]bool{"Save": true, "AppendBinary": true, "MarshalBinary": true, "PageOut": true}
var loadSideNames = map[string]bool{"Load": true, "UnmarshalBinary": true, "PageIn": true}

func runStateSync(p *Pass) error {
	for _, ct := range collectCheckpointTypes(p) {
		checkFieldParity(p, ct)
	}
	return nil
}

// checkpointType is one named struct type with state methods.
type checkpointType struct {
	name       *types.TypeName
	structType *types.Struct
	structDecl *ast.StructType // syntax, for field annotations
	// methods maps method name -> declaration for every method of the
	// type found in this package.
	methods map[string]*ast.FuncDecl
	// stateMethods are the Save/Load-side roots.
	stateMethods []*ast.FuncDecl
}

func collectCheckpointTypes(p *Pass) []*checkpointType {
	byName := make(map[*types.TypeName]*checkpointType)

	// Struct declarations.
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, ok := p.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				structType, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				byName[tn] = &checkpointType{
					name:       tn,
					structType: structType,
					structDecl: st,
					methods:    make(map[string]*ast.FuncDecl),
				}
			}
		}
	}

	// Method declarations.
	forEachFuncDecl(p.Files, func(fd *ast.FuncDecl) {
		if fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) != 1 {
			return
		}
		fn, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		sig := fn.Type().(*types.Signature)
		named := namedRecvType(sig.Recv().Type())
		if named == nil {
			return
		}
		if ct, ok := byName[named.Obj()]; ok {
			ct.methods[fd.Name.Name] = fd
		}
	})

	var out []*checkpointType
	for _, ct := range byName {
		hasSave, hasLoad := false, false
		for name, fd := range ct.methods {
			if saveSideNames[name] {
				hasSave = true
				ct.stateMethods = append(ct.stateMethods, fd)
			}
			if loadSideNames[name] {
				hasLoad = true
				ct.stateMethods = append(ct.stateMethods, fd)
			}
		}
		if hasSave && hasLoad {
			out = append(out, ct)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name.Name() < out[j].name.Name() })
	return out
}

// checkFieldParity verifies every field of ct is referenced by the
// state methods (transitively through same-type method calls) or
// annotated transient.
func checkFieldParity(p *Pass, ct *checkpointType) {
	// Grow the method set to the fixpoint of same-type calls reachable
	// from the state methods.
	reached := make(map[*ast.FuncDecl]bool)
	var frontier []*ast.FuncDecl
	for _, fd := range ct.stateMethods {
		if !reached[fd] {
			reached[fd] = true
			frontier = append(frontier, fd)
		}
	}
	for len(frontier) > 0 {
		fd := frontier[0]
		frontier = frontier[1:]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(p.TypesInfo, call)
			if callee == nil {
				return true
			}
			sig, ok := callee.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			named := namedRecvType(sig.Recv().Type())
			if named == nil || named.Obj() != ct.name {
				return true
			}
			if target, ok := ct.methods[callee.Name()]; ok && !reached[target] {
				reached[target] = true
				frontier = append(frontier, target)
			}
			return true
		})
	}

	// Collect the direct fields referenced in the reached bodies.
	covered := make(map[*types.Var]bool)
	for fd := range reached {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			sel := p.TypesInfo.Selections[se]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			recv := namedRecvType(sel.Recv())
			if recv == nil || recv.Obj() != ct.name {
				return true
			}
			// Index()[0] is the direct field of ct reached first, even
			// when the selection drills into an embedded struct.
			covered[ct.structType.Field(sel.Index()[0])] = true
			return true
		})
	}

	// Judge each field.
	fieldIdx := 0
	for _, fieldDecl := range ct.structDecl.Fields.List {
		names := len(fieldDecl.Names)
		if names == 0 {
			names = 1 // embedded field
		}
		for i := 0; i < names; i++ {
			field := ct.structType.Field(fieldIdx)
			fieldIdx++
			transient, reasonOK := transientAnnotation(fieldDecl)
			switch {
			case transient && !reasonOK:
				p.Reportf(field.Pos(), "field %s.%s: //streamad:transient annotation missing reason", ct.name.Name(), field.Name())
			case transient && covered[field]:
				p.Reportf(field.Pos(), "field %s.%s is marked //streamad:transient but is referenced by the state methods; drop the annotation or the reference", ct.name.Name(), field.Name())
			case !transient && !covered[field]:
				p.Reportf(field.Pos(), "field %s.%s is neither referenced in %s's Save/Load path nor annotated //streamad:transient <reason>; a checkpoint restore will silently lose it", ct.name.Name(), field.Name(), ct.name.Name())
			}
		}
	}
}

// transientAnnotation reports whether the field declaration carries a
// //streamad:transient marker (doc comment or trailing comment) and
// whether it includes the mandatory reason.
func transientAnnotation(field *ast.Field) (present, reasonOK bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text, ok := trimCommentSlashes(c.Text)
			if !ok || !hasPrefixWord(text, "streamad:transient") {
				continue
			}
			present = true
			if rest := trimSpace(text[len("streamad:transient"):]); rest != "" {
				reasonOK = true
			}
		}
	}
	return present, reasonOK
}
