package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// golden runs one analyzer over the fixture module under testdata/<name>
// and compares the rendered findings against expect.txt in the same
// directory (paths relative to the fixture root). Regenerate with UPDATE_GOLDEN=1 go test ./internal/lint.
func golden(t *testing.T, a *Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", a.Name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var b strings.Builder
	for _, d := range Run(prog, []*Analyzer{a}) {
		rel, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n",
			filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Msg)
	}
	got := b.String()
	expectPath := filepath.Join(dir, "expect.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(expectPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(expectPath)
	if err != nil {
		t.Fatalf("reading golden file: %v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if got != string(want) {
		t.Errorf("findings differ from %s:\n--- got ---\n%s--- want ---\n%s", expectPath, got, want)
	}
	if strings.TrimSpace(got) == "" {
		t.Errorf("fixture produced no findings; the analyzer no longer detects its seeded violations")
	}
}

func TestGoldenCounterDelta(t *testing.T) { golden(t, AnalyzerCounterDelta) }
func TestGoldenLockOrder(t *testing.T)    { golden(t, AnalyzerLockOrder) }
func TestGoldenCancelPoll(t *testing.T)   { golden(t, AnalyzerCancelPoll) }
func TestGoldenChargePath(t *testing.T)   { golden(t, AnalyzerChargePath) }
func TestGoldenPoolEscape(t *testing.T)   { golden(t, AnalyzerPoolEscape) }
func TestGoldenWalErr(t *testing.T)       { golden(t, AnalyzerWalErr) }

// TestRepoClean asserts the full suite reports nothing on the repository
// itself: every real finding has been fixed or carries a justified waiver,
// and HEAD must stay that way (energylint is a required CI gate). The
// converse holds too: every //lint:<key> comment must still suppress a
// finding, so a waiver that outlives its reason cannot hide a later one.
func TestRepoClean(t *testing.T) {
	prog := loadRepo(t, "./...")
	for _, d := range Run(prog, All()) {
		t.Errorf("unexpected finding at HEAD: %s", d)
	}
	for _, pos := range prog.staleWaivers() {
		t.Errorf("stale waiver at %s:%d: it suppresses no finding; delete it", pos.Filename, pos.Line)
	}
}

func loadRepo(t *testing.T, patterns ...string) *Program {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root, patterns...)
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	return prog
}

// TestDeletionMatrix removes, one at a time and in memory, every statement
// of the methods of vec.HashJoin, vec.Sort and exec.SortRun (the ordering
// pass both sorts share) that is a Poll or a call to a charge function whose
// summary says it always pays the per-batch dispatch, and every Poll of the
// index operators' vec.fetcher (14 statements when written), and expects
// chargepath or cancelpoll to notice each time: those calls are what the two
// analyzers exist to keep in place. The fetcher's dispatches are left out:
// under a join its emit pays a second one for the gather, which the per-batch
// rule cannot tell from the first.
// isDispatchCharge reports whether call invokes a package-level function
// that dispatches on every path: the shared charge functions, as opposed to
// operator methods that reach one.
func isDispatchCharge(sum *summary, pkg *Package, call *ast.CallExpr) bool {
	fn, ok := calleeObject(pkg, call).(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	f := sum.facts[fn]
	return f != nil && f.mustDispatches
}

func TestDeletionMatrix(t *testing.T) {
	prog := loadRepo(t, "./internal/db/vec", "./internal/db/exec")
	analyzers := []*Analyzer{AnalyzerChargePath, AnalyzerCancelPoll}
	if diags := Run(prog, analyzers); len(diags) > 0 {
		t.Fatalf("vec and exec are not clean before any deletion: %v", diags)
	}
	receivers := map[string][]string{
		"energydb/internal/db/vec":  {"HashJoin", "Sort", "fetcher"},
		"energydb/internal/db/exec": {"SortRun"},
	}
	pollsOnly := map[string]bool{"fetcher": true}
	sites := 0
	sum := prog.chargeSummary()
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil || !slices.Contains(receivers[pkg.Path], recvTypeName(fd)) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					var list *[]ast.Stmt
					switch n := n.(type) {
					case *ast.BlockStmt:
						list = &n.List
					case *ast.CaseClause:
						list = &n.Body
					case *ast.CommClause:
						list = &n.Body
					default:
						return true
					}
					kept := *list
					for i, st := range kept {
						es, ok := st.(*ast.ExprStmt)
						if !ok {
							continue
						}
						call, ok := es.X.(*ast.CallExpr)
						if !ok {
							continue
						}
						// PollEvery is left out: both of its uses sit next to a
						// TupleCost that polls as well, so it is redundant to
						// the analyzers by design.
						if calleeName(call) != "Poll" && (pollsOnly[recvTypeName(fd)] || !isDispatchCharge(sum, pkg, call)) {
							continue
						}
						sites++
						*list = append(append([]ast.Stmt{}, kept[:i]...), kept[i+1:]...)
						prog.chargeSum, prog.cfgCache = nil, nil
						if len(Run(prog, analyzers)) == 0 {
							t.Errorf("deleting %s at %s goes unnoticed", exprString(call), prog.Fset.Position(call.Pos()))
						}
						*list = kept
					}
					return true
				})
			}
		}
	}
	if sites == 0 {
		t.Errorf("found no dispatch or Poll statement in the methods of vec.HashJoin, vec.Sort, vec.fetcher and exec.SortRun; the matrix checks nothing")
	}
	t.Logf("%d deletions tried", sites)
}
