// Package report renders experiment results as a self-contained HTML
// document: each table verbatim, plus SVG stacked-bar charts for every
// result whose CSV carries the eight breakdown components — the closest
// thing to regenerating the paper's figures as figures.
package report

import (
	"fmt"
	"html"
	"strconv"
	"strings"

	"energydb/internal/core"
	"energydb/internal/harness"
)

// componentColumns are the breakdown headers, in stacking order: each
// component's name with "%" appended, as the harness tables head them.
var componentColumns = func() []string {
	out := make([]string, core.NumComponents)
	for i, c := range core.Components() {
		out[i] = c.String() + "%"
	}
	return out
}()

// componentColors shade the stack (L1D family warm, memory path cool,
// other grey).
var componentColors = []string{
	"#d9534f", "#e58368", "#f2b661", "#f7dd72", "#6fb3d9", "#3d7ea8", "#8e6bb3", "#b8b8b8",
}

// HTML renders a full document for the results.
func HTML(title string, results []harness.Result) string {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	fmt.Fprintf(&sb, "<title>%s</title>\n", html.EscapeString(title))
	sb.WriteString(`<style>
body { font-family: -apple-system, "Segoe UI", sans-serif; margin: 2rem auto; max-width: 70rem; color: #222; }
pre { background: #f6f6f6; padding: 0.8rem; overflow-x: auto; font-size: 0.78rem; }
h1 { border-bottom: 2px solid #444; padding-bottom: 0.3rem; }
h2 { margin-top: 2.2rem; }
.bar-label { font-size: 0.75rem; }
.legend span { display: inline-block; margin-right: 0.9rem; font-size: 0.75rem; }
.legend i { display: inline-block; width: 0.8rem; height: 0.8rem; margin-right: 0.25rem; vertical-align: -0.1rem; }
</style></head><body>
`)
	fmt.Fprintf(&sb, "<h1>%s</h1>\n", html.EscapeString(title))
	for _, r := range results {
		fmt.Fprintf(&sb, "<h2>%s — %s</h2>\n", html.EscapeString(r.ID), html.EscapeString(r.Title))
		fmt.Fprintf(&sb, "<pre>%s</pre>\n", html.EscapeString(r.Text))
		if chart := chartFromCSV(r.CSV); chart != "" {
			sb.WriteString(legendHTML())
			sb.WriteString(chart)
		}
	}
	sb.WriteString("</body></html>\n")
	return sb.String()
}

func legendHTML() string {
	var sb strings.Builder
	sb.WriteString(`<div class="legend">`)
	for i, name := range componentColumns {
		fmt.Fprintf(&sb, `<span><i style="background:%s"></i>%s</span>`,
			componentColors[i], html.EscapeString(strings.TrimSuffix(name, "%")))
	}
	sb.WriteString("</div>\n")
	return sb.String()
}

// chartFromCSV renders stacked bars when the CSV header contains the eight
// component columns; otherwise it returns "".
func chartFromCSV(csv string) string {
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		return ""
	}
	header := strings.Split(lines[0], ",")
	idx := make([]int, 0, len(componentColumns))
	for _, want := range componentColumns {
		found := -1
		for i, h := range header {
			if h == want {
				found = i
				break
			}
		}
		if found < 0 {
			return ""
		}
		idx = append(idx, found)
	}
	// Label columns: everything before the first component column.
	labelEnd := idx[0]

	const (
		barW  = 560
		barH  = 16
		gap   = 6
		textW = 260
	)
	rows := lines[1:]
	height := len(rows)*(barH+gap) + gap
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg width="%d" height="%d" xmlns="http://www.w3.org/2000/svg">`,
		textW+barW+10, height)
	y := gap
	for _, line := range rows {
		cells := strings.Split(line, ",")
		if len(cells) <= idx[len(idx)-1] {
			continue
		}
		label := strings.Join(cells[:labelEnd], " / ")
		fmt.Fprintf(&sb,
			`<text class="bar-label" x="%d" y="%d" text-anchor="end" font-size="11">%s</text>`,
			textW-6, y+barH-4, html.EscapeString(label))
		x := float64(textW)
		for c, col := range idx {
			v, err := strconv.ParseFloat(cells[col], 64)
			if err != nil || v <= 0 {
				continue
			}
			w := v / 100 * barW
			fmt.Fprintf(&sb,
				`<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s %.1f%%</title></rect>`,
				x, y, w, barH, componentColors[c], componentColumns[c], v)
			x += w
		}
		y += barH + gap
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}
