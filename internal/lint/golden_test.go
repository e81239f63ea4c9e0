package lint

import (
	"fmt"
	"os"
	"path/filepath"
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

func TestGoldenLockOrder(t *testing.T)  { golden(t, AnalyzerLockOrder) }
func TestGoldenPoolEscape(t *testing.T) { golden(t, AnalyzerPoolEscape) }
func TestGoldenWalErr(t *testing.T)     { golden(t, AnalyzerWalErr) }

// TestRepoClean asserts the full suite reports nothing on the repository
// itself: every real finding has been fixed or carries a justified waiver,
// and HEAD must stay that way (energylint is a required CI gate). The
// converse holds too: every //lint:<key> comment must still suppress a
// finding, so a waiver that outlives its reason cannot hide a later one.
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	for _, d := range Run(prog, All()) {
		t.Errorf("unexpected finding at HEAD: %s", d)
	}
	for _, pos := range prog.staleWaivers() {
		t.Errorf("stale waiver at %s:%d: it suppresses no finding; delete it", pos.Filename, pos.Line)
	}
}
