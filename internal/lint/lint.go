// Package lint is energylint: a dependency-free static-analysis suite that
// enforces the repository's concurrency, durability and pooling invariants.
// The measurement methodology of the paper (Eq. 1 attribution from PMU
// counter deltas, exact ledger partitioning, race-free snapshots) is only as
// credible as the plumbing that implements it; this package turns the
// invariants the code documents in prose into machine-checked rules where
// no run-time test can hold them. The charge and cancellation rules are
// held at run time instead: by the exact-charge and recorded-counter tests
// and by the cancellation-latency test over the TPC-H texts (DESIGN.md §10).
//
// The suite uses only the standard library (go/parser, go/ast, go/types,
// go/importer), matching the module's zero-dependency go.mod. Packages are
// loaded and type-checked once per process and shared by every analyzer
// (see Load), which keeps a full-repo run well under the CI budget.
//
// # Analyzers
//
// One rule is a local type/AST rule with no path question:
//
//   - poolescape: pooled vec batches/vectors pulled from an operator or
//     pool must not be retained in fields or growing slices past their
//     reuse point.
//
// Two are path rules, clients of one engine: a statement-level CFG
// (cfg.go) and a reachability-avoiding-facts query over it (dataflow.go:
// avoidSearch). No analyzer re-derives a path property by matching
// statement shapes.
//
//   - lockorder: engine → txn → storage → btree lock ordering and locks
//     held across a channel operation (a lock is held wherever a path from
//     its Lock avoids every non-deferred Unlock of it), plus exported lock
//     wrappers on engine types. Copies of lock-bearing values are go vet's
//     copylocks check.
//   - walerr: WAL/engine/txn/storage durability errors
//     (Commit/Rollback/Abort/Sync/Append) must reach the caller or the
//     abort path on every CFG path.
//
// # Waivers
//
// A finding can be waived with a //lint:<key> comment trailing the flagged
// line, or standing alone on the line directly above it, where <key> is the
// analyzer's name. A trailing waiver covers its own line only. Waivers
// should carry a justification after the key:
//
//	//lint:poolescape held only until the next Child.Next pull
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
	// Name identifies the analyzer in diagnostics and -only filters, and
	// is the //lint:<key> token that waives its findings.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one type-checked package and reports findings.
	Run func(*Pass)
}

// All lists every analyzer in the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerLockOrder,
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
	if p.Prog.waived(position, p.analyzer.Name) {
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
	// own line alone, so it cannot leak onto the next statement.
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
// function literal, each its own scope.
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

// funcScopes enumerates every function body in the file: all declarations
// and every function literal, each as its own scope.
func funcScopes(f *ast.File) []funcScope {
	var out []funcScope
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, funcScope{name: fd.Name.Name, node: fd, body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcScope{name: fd.Name.Name + " (func literal)", node: lit, body: lit.Body})
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
