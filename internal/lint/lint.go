// Package lint is energylint: a dependency-free static-analysis suite that
// enforces the repository's energy-accounting and concurrency invariants.
// The measurement methodology of the paper (Eq. 1 attribution from PMU
// counter deltas, exact ledger partitioning, race-free snapshots) is only as
// credible as the plumbing that implements it; this package turns the
// invariants the code documents in prose — and has violated before, see the
// StallAwareGovernor underflow — into machine-checked rules.
//
// The suite uses only the standard library (go/parser, go/ast, go/types,
// go/importer), matching the module's zero-dependency go.mod. Packages are
// loaded and type-checked once per process and shared by every analyzer
// (see Load), which keeps a full-repo run well under the CI budget.
//
// # Analyzers
//
// Two rules are local type/AST rules with no path question:
//
//   - counterdelta: raw a-b subtraction on monotonic uint64 PMU/ledger
//     counters (underflow on counter reset).
//   - poolescape: pooled vec batches/vectors pulled from an operator or
//     pool must not be retained in fields or growing slices past their
//     reuse point.
//
// Four are path rules, and all four are clients of one engine: a
// statement-level CFG (cfg.go), reachability-avoiding-facts queries over it
// (dataflow.go: avoidSearch, guaranteedOn, iterationCompletes, loop anchors)
// and an interprocedural may/must summary of what every declared function
// charges, dispatches and polls (summary.go). No analyzer re-derives a path
// property by matching statement shapes.
//
//   - lockorder: engine → txn → storage → btree lock ordering and locks
//     held across a channel operation (a lock is held wherever a path from
//     its Lock avoids every non-deferred Unlock of it), plus exported lock
//     wrappers on engine types. Copies of lock-bearing values are go vet's
//     copylocks check.
//   - chargepath: every executor loop that advances tuples, batches,
//     pages or version chains must charge the meter on every completing
//     iteration (vectorized loops additionally owe a per-batch driver
//     dispatch, and emit boundaries a free cancellation poll).
//   - cancelpoll: no iteration of a tuple or batch loop may complete
//     without reaching a cancellation checkpoint (statement timeouts would
//     not fire), unless the loop is batch-bounded and a checkpoint is
//     guaranteed once per enclosing iteration; sort comparators must
//     contain one.
//   - walerr: WAL/engine/txn/storage durability errors
//     (Commit/Rollback/Abort/Sync/Append) must reach the caller or the
//     abort path on every CFG path.
//
// # Waivers
//
// A finding can be waived with a //lint:<key> comment trailing the flagged
// line, or standing alone on the line directly above it, where <key> is the
// analyzer's waiver key (counterdelta uses "monotonic", cancelpoll uses
// "nopoll", chargepath uses "nocharge", the others use their own name). A
// trailing waiver covers its own line only. Waivers should carry a
// justification after the key:
//
//	//lint:monotonic Transitions only advances on this goroutine
//
// A waiver that no longer suppresses anything is stale; TestRepoClean fails
// on it. DESIGN.md §10 is the rule catalogue: each analyzer, the engine
// query it reduces to, its waiver key and the bug it came from.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is a one-line description.
	Doc string
	// WaiverKey is the //lint:<key> token that suppresses this analyzer's
	// findings (defaults to Name when empty).
	WaiverKey string
	// Run inspects one type-checked package and reports findings.
	Run func(*Pass)
}

// Key returns the waiver token for the analyzer.
func (a *Analyzer) Key() string {
	if a.WaiverKey != "" {
		return a.WaiverKey
	}
	return a.Name
}

// All lists every analyzer in the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerCounterDelta,
		AnalyzerLockOrder,
		AnalyzerCancelPoll,
		AnalyzerChargePath,
		AnalyzerPoolEscape,
		AnalyzerWalErr,
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

// String renders the finding as file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Msg)
}

// Pass carries one (analyzer, package) run.
type Pass struct {
	Prog     *Program
	Pkg      *Package
	analyzer *Analyzer
	out      *[]Diagnostic
}

// Fset returns the shared file set.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// TypeOf returns the type of an expression, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// Reportf records a finding at pos unless a waiver covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if p.Prog.waived(position, p.analyzer.Key()) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Pos:      position,
		Analyzer: p.analyzer.Name,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Run executes the given analyzers over every loaded package and returns
// the findings sorted by position. Analyzers share the program's single
// type-checked view; nothing is re-parsed or re-checked between analyzers.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Prog: prog, Pkg: pkg, analyzer: a, out: &out})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// waiverPrefix introduces a suppression comment.
const waiverPrefix = "//lint:"

// waiver is one //lint:<key> comment.
type waiver struct {
	pos token.Position
	key string
	// standalone is set when nothing but the comment is on its line; only
	// then does it also cover the line below. A trailing waiver covers its
	// own line alone, so `x := a - b //lint:monotonic` cannot leak onto the
	// next statement.
	standalone bool
	// used records that the waiver suppressed at least one finding; a
	// waiver that never did is stale (TestRepoClean fails on those).
	used bool
}

// collectWaivers indexes every //lint:<key> comment by file and line.
func collectWaivers(fset *token.FileSet, files []*ast.File) map[string]map[int][]*waiver {
	out := make(map[string]map[int][]*waiver)
	for _, f := range files {
		var found []*waiver
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), waiverPrefix)
				if !ok {
					continue
				}
				if fields := strings.Fields(rest); len(fields) > 0 {
					found = append(found, &waiver{pos: fset.Position(c.Pos()), key: fields[0]})
				}
			}
		}
		if len(found) == 0 {
			continue
		}
		// A line carries code when some syntax node starts or ends on it.
		code := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil, *ast.CommentGroup:
				return false
			}
			code[fset.Position(n.Pos()).Line] = true
			code[fset.Position(n.End()).Line] = true
			return true
		})
		byLine := make(map[int][]*waiver)
		for _, w := range found {
			w.standalone = !code[w.pos.Line]
			byLine[w.pos.Line] = append(byLine[w.pos.Line], w)
		}
		out[found[0].pos.Filename] = byLine
	}
	return out
}

// waived reports whether a //lint:<key> comment covers the position: on the
// same line, or standing alone on the line directly above.
func (p *Program) waived(pos token.Position, key string) bool {
	byLine := p.waivers[pos.Filename]
	for _, w := range byLine[pos.Line] {
		if w.key == key {
			w.used = true
			return true
		}
	}
	for _, w := range byLine[pos.Line-1] {
		if w.key == key && w.standalone {
			w.used = true
			return true
		}
	}
	return false
}

// staleWaivers lists the waiver comments that suppressed no finding in the
// runs so far, sorted by position.
func (p *Program) staleWaivers() []token.Position {
	var out []token.Position
	for _, byLine := range p.waivers {
		for _, ws := range byLine {
			for _, w := range ws {
				if !w.used {
					out = append(out, w.pos)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Filename != out[j].Filename {
			return out[i].Filename < out[j].Filename
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// exprString renders a (small) expression for operand matching and messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("%T", e)
	}
}

// funcScope is one function body an analyzer scans: a declaration or a
// function literal. Analyzers that model per-goroutine state (lockorder)
// scan literals as their own scopes; analyzers looking for guards anywhere
// in the written function (counterdelta) search the body inclusively.
type funcScope struct {
	name string
	node ast.Node       // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt // never nil
}

// captures reports whether obj is declared outside this scope: a variable a
// function literal closes over, which the enclosing function reads after
// the literal runs.
func (fs funcScope) captures(obj types.Object) bool {
	return obj.Pos() < fs.node.Pos() || fs.node.End() < obj.Pos()
}

// declScopes enumerates only the declared function bodies (literals stay
// part of their declaration). Use when "the enclosing function" means the
// function as written, nested closures included.
func declScopes(f *ast.File) []funcScope {
	var out []funcScope
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, funcScope{name: fd.Name.Name, node: fd, body: fd.Body})
	}
	return out
}

// funcScopes enumerates every function body in the file: all declarations
// and every function literal, each as its own scope.
func funcScopes(f *ast.File) []funcScope {
	var out []funcScope
	for _, decl := range declScopes(f) {
		out = append(out, decl)
		ast.Inspect(decl.body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcScope{name: decl.name + " (func literal)", node: lit, body: lit.Body})
			}
			return true
		})
	}
	return out
}

// inspectShallow walks n like ast.Inspect but does not descend into nested
// function literals, so per-goroutine analyses don't mix scopes. A nil n
// (a synthetic CFG node's fragment) has nothing to walk.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// scopeLoops lists the for/range statements of one function scope in source
// order (outer loops before the loops they enclose), nested function
// literals excluded.
func scopeLoops(body *ast.BlockStmt) []ast.Stmt {
	var loops []ast.Stmt
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, n)
		case *ast.RangeStmt:
			loops = append(loops, n)
		}
		return true
	})
	return loops
}

// calleeName extracts the called function's bare name ("" for calls through
// a function value that is neither an identifier nor a selector).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// namedOf unwraps pointers to a named type.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// typeName returns the bare name of t's named type (one pointer stripped),
// or "" when t is nil or unnamed. Analyzers key on names rather than on
// object identity so the fixture modules can mirror the real packages.
func typeName(t types.Type) string {
	if named := namedOf(t); named != nil {
		return named.Obj().Name()
	}
	return ""
}

// hasMethod reports whether a value of type t — addressable, so pointer-
// receiver methods count — or the interface t has a method of that name.
func hasMethod(t types.Type, name string) bool {
	if _, isPtr := t.(*types.Pointer); !isPtr && !types.IsInterface(t) {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// reachableTypes returns the types called name that the package declares
// or a direct import declares: the Operator interfaces a package can
// delegate through.
func reachableTypes(pass *Pass, name string) []*types.TypeName {
	var out []*types.TypeName
	for _, pkg := range append([]*types.Package{pass.Pkg.Types}, pass.Pkg.Types.Imports()...) {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			out = append(out, tn)
		}
	}
	return out
}

// mentionsType reports whether the package declares or names a type called
// name that has the given method. cancelpoll gates on it: a package that
// talks about the executor Ctx has a machine to poll, while code that merely
// imports such a package (row rendering in the shell, wire encoding) stays
// out of scope. The other gates are reachableTypes (declared here or in a
// direct import) and, for layer-named rules — engine, txn, vec, wire, ... —
// path.Base of the import path, so fixture packages of the same name are
// analyzed like the real ones.
func mentionsType(pass *Pass, name, method string) bool {
	for _, idents := range []map[*ast.Ident]types.Object{pass.Pkg.Info.Defs, pass.Pkg.Info.Uses} {
		for id, obj := range idents {
			if tn, ok := obj.(*types.TypeName); ok && id.Name == name && hasMethod(tn.Type(), method) {
				return true
			}
		}
	}
	return false
}
