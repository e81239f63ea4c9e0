package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
)

// AnalyzerWireSym checks the wire protocol's symmetry invariants
// (internal/server/wire): the frame enumeration, the Decode dispatch and
// the Type.String names must stay in lockstep, and every frame struct must
// carry both halves of its codec. A frame type that can be encoded but not
// decoded (or vice versa) is a protocol break that only surfaces when a
// peer of the other role first sends it — long after the PR that forgot
// the case merged. Concretely:
//
//   - every constant of the frame-type enum must have a case in the
//     Decode switch and in the String switch;
//   - every struct with a FrameType method must be constructed in Decode;
//   - a struct with an encode method must have a decode method, and vice
//     versa.
//
// The analyzer runs in packages whose import path ends in /wire.
var AnalyzerWireSym = &Analyzer{
	Name: "wiresym",
	Doc:  "wire frame types need matching Encode/Decode/String surfaces",
	Run:  runWireSym,
}

func runWireSym(pass *Pass) {
	if path.Base(pass.Pkg.Path) != "wire" {
		return
	}
	enum := findFrameEnum(pass)
	if enum == nil {
		return
	}

	consts := enumConstants(pass, enum) // name → position
	decodeCases := switchCaseConsts(pass, enum, "Decode", false)
	stringCases := switchCaseConsts(pass, enum, "String", true)
	decodedTypes := constructedInDecode(pass)

	var names []string
	for name := range consts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !decodeCases[name] {
			pass.Reportf(consts[name], "frame type %s has no case in Decode: peers cannot parse it", name)
		}
		if !stringCases[name] {
			pass.Reportf(consts[name], "frame type %s has no case in Type.String: diagnostics will print a raw byte", name)
		}
	}

	// Struct-level symmetry.
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj := pass.Pkg.Info.Defs[ts.Name]
				if obj == nil {
					continue
				}
				tn, ok := obj.(*types.TypeName)
				if !ok {
					continue
				}
				if _, isStruct := tn.Type().Underlying().(*types.Struct); !isStruct {
					continue
				}
				hasFrameType := hasMethod(tn.Type(), "FrameType")
				hasEnc := hasMethod(tn.Type(), "encode") || hasMethod(tn.Type(), "Encode")
				hasDec := hasMethod(tn.Type(), "decode") || hasMethod(tn.Type(), "Decode")
				if !hasFrameType && !hasEnc && !hasDec {
					continue
				}
				name := tn.Name()
				if hasEnc && !hasDec {
					pass.Reportf(ts.Name.Pos(), "wire type %s has an encode method but no decode: the peer cannot read what this side writes", name)
				}
				if hasDec && !hasEnc {
					pass.Reportf(ts.Name.Pos(), "wire type %s has a decode method but no encode: round-trip tests and the fuzz oracle cannot cover it", name)
				}
				if hasFrameType && hasEnc && hasDec && !decodedTypes[name] {
					pass.Reportf(ts.Name.Pos(), "frame struct %s is never constructed in Decode: frames of this type are rejected as unknown", name)
				}
			}
		}
	}
}

// findFrameEnum locates the frame-type enum: the named type returned by
// any FrameType method in the package (falling back to a defined type
// literally named "Type" with byte underlying).
func findFrameEnum(pass *Pass) *types.Named {
	for _, obj := range pass.Pkg.Info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Name() != "FrameType" {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Results().Len() != 1 {
			continue
		}
		if named := namedOf(sig.Results().At(0).Type()); named != nil {
			return named
		}
	}
	obj := pass.Pkg.Types.Scope().Lookup("Type")
	if tn, ok := obj.(*types.TypeName); ok {
		if named := namedOf(tn.Type()); named != nil {
			return named
		}
	}
	return nil
}

// enumConstants returns every package-level constant of the enum type.
func enumConstants(pass *Pass, enum *types.Named) map[string]token.Pos {
	out := make(map[string]token.Pos)
	for ident, obj := range pass.Pkg.Info.Defs {
		c, ok := obj.(*types.Const)
		if !ok {
			continue
		}
		if namedOf(c.Type()) == enum && c.Parent() == pass.Pkg.Types.Scope() {
			out[c.Name()] = ident.Pos()
		}
	}
	return out
}

// switchCaseConsts collects the enum constants that appear as case values
// in the named function (method when method is true).
func switchCaseConsts(pass *Pass, enum *types.Named, funcName string, method bool) map[string]bool {
	out := make(map[string]bool)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != funcName || fd.Body == nil {
				continue
			}
			if method != (fd.Recv != nil) {
				continue
			}
			if method {
				// Only the enum's own String method counts.
				fobj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				recv := fobj.Type().(*types.Signature).Recv()
				if recv == nil || namedOf(recv.Type()) != enum {
					continue
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, e := range cc.List {
					appendCaseConst(pass, enum, e, out)
				}
				return true
			})
		}
	}
	return out
}

// appendCaseConst records the enum constant named by a case expression.
func appendCaseConst(pass *Pass, enum *types.Named, e ast.Expr, out map[string]bool) {
	e = ast.Unparen(e)
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = pass.Pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.Pkg.Info.Uses[e.Sel]
	default:
		return
	}
	if c, ok := obj.(*types.Const); ok && namedOf(c.Type()) == enum {
		out[c.Name()] = true
	}
}

// constructedInDecode collects struct type names constructed (via
// composite literal or new) inside the package's Decode function.
func constructedInDecode(pass *Pass) map[string]bool {
	out := make(map[string]bool)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Decode" || fd.Recv != nil || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if named := namedOf(pass.TypeOf(n)); named != nil {
						out[named.Obj().Name()] = true
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
						if named := namedOf(pass.TypeOf(n.Args[0])); named != nil {
							out[named.Obj().Name()] = true
						}
					}
				}
				return true
			})
		}
	}
	return out
}
