// Command energylint runs the project's static-analysis suite: the
// analyzers that machine-check the energy-accounting and concurrency
// invariants the codebase otherwise enforces by convention (and has
// violated before — see DESIGN.md §10). It is a required gate in
// `make check` and CI.
//
// Usage:
//
//	energylint [-only a,b] [-format text|json|github] [-list] [packages]
//
// Packages default to ./... relative to the current directory. The whole
// module is parsed and type-checked once — stdlib only, no go/packages —
// and every analyzer shares that view, so a full run stays in single-digit
// seconds. Exit status: 0 clean, 1 findings, 2 load/usage error.
//
// -format selects the diagnostic rendering: "text" (default, the
// file:line:col: [analyzer] message lines), "json" (one array of
// {file,line,col,analyzer,message} objects, for tooling), or "github"
// (::error workflow commands, so CI findings surface as inline PR
// annotations).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"energydb/internal/lint"
)

func main() {
	var (
		only   = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		format = flag.String("format", "text", "diagnostic output format: text, json, or github")
		list   = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(os.Stderr, "energylint: unknown format %q (want text, json, or github)\n", *format)
		os.Exit(2)
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s (waiver //lint:%s)\n", a.Name, a.Doc, a.Key())
		}
		return
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "energylint: unknown analyzer %q (use -list)\n", name)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "energylint:", err)
		os.Exit(2)
	}
	prog, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "energylint:", err)
		os.Exit(2)
	}
	diags := lint.Run(prog, analyzers)
	if err := render(os.Stdout, *format, diags); err != nil {
		fmt.Fprintln(os.Stderr, "energylint:", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "energylint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonDiag is the stable machine-readable shape of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// render writes the findings in the selected format. text and github
// print one line per finding; json emits a single array (empty on a
// clean run, so consumers can always parse the output). json and github
// relativize filenames against the working directory — GitHub attaches
// an annotation only when file= is repo-relative.
func render(w *os.File, format string, diags []lint.Diagnostic) error {
	switch format {
	case "text":
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
	case "json":
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     relFile(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Msg,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	case "github":
		for _, d := range diags {
			// Workflow-command syntax: property values escape % : ,
			// and the message escapes % \r \n.
			fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=energylint(%s)::%s\n",
				escapeGithubProperty(relFile(d.Pos.Filename)), d.Pos.Line, d.Pos.Column,
				escapeGithubProperty(d.Analyzer), escapeGithubData(d.Msg))
		}
	}
	return nil
}

// relFile renders the path relative to the working directory when it is
// inside it (CI runs from the repo root), leaving outside paths intact.
func relFile(file string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return file
	}
	rel, err := filepath.Rel(cwd, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return filepath.ToSlash(rel)
}

func escapeGithubData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func escapeGithubProperty(s string) string {
	s = escapeGithubData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
