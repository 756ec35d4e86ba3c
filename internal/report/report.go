// Package report renders analysis results as aligned text tables and
// ASCII plots — the form the benchmark harness and CLI use to present
// each of the paper's tables and figures.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// RawRow appends one row of preformatted strings.
func (t *Table) RawRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	ncol := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	}
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range widths {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(ncol-1)) + "\n")
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// CDF renders a cumulative distribution as an ASCII plot: xs must be the
// sorted sample values.
func CDF(title, xlabel string, xs []float64, width, height int) string {
	if len(xs) == 0 {
		return title + ": (no data)\n"
	}
	lo, hi := xs[0], xs[len(xs)-1]
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for i, x := range xs {
		frac := float64(i+1) / float64(len(xs))
		col := int((x - lo) / (hi - lo) * float64(width-1))
		row := height - 1 - int(frac*float64(height-1))
		if col >= 0 && col < width && row >= 0 && row < height {
			grid[row][col] = '*'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for i, line := range grid {
		frac := float64(height-1-i) / float64(height-1)
		fmt.Fprintf(&b, "%5.2f |%s\n", frac, string(line))
	}
	fmt.Fprintf(&b, "      +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "       %-*s%s\n", width-len(fmt.Sprint(hi)), fmtF(lo), fmtF(hi))
	fmt.Fprintf(&b, "       (%s)\n", xlabel)
	return b.String()
}

func fmtF(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

// Series is one line of a time-series plot.
type Series struct {
	Name   string
	Points []float64 // sampled at uniform x intervals
}

// TimeSeries renders multiple series sampled on a common x grid. Each
// series is drawn with its own rune.
func TimeSeries(title string, xlabels [2]string, series []Series, width, height int) string {
	marks := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}
	lo, hi := math.Inf(1), math.Inf(-1)
	maxLen := 0
	for _, s := range series {
		for _, v := range s.Points {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if len(s.Points) > maxLen {
			maxLen = len(s.Points)
		}
	}
	if maxLen == 0 {
		return title + ": (no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i, v := range s.Points {
			col := 0
			if maxLen > 1 {
				col = i * (width - 1) / (maxLen - 1)
			}
			row := height - 1 - int((v-lo)/(hi-lo)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for i, line := range grid {
		v := hi - (hi-lo)*float64(i)/float64(height-1)
		fmt.Fprintf(&b, "%10s |%s\n", fmtF(v), string(line))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  %-*s%s\n", "", width-len(xlabels[1]), xlabels[0], xlabels[1])
	for si, s := range series {
		fmt.Fprintf(&b, "%10s  %c = %s\n", "", marks[si%len(marks)], s.Name)
	}
	return b.String()
}

// Gantt renders labeled horizontal spans (the Figure-4 timeline style).
// Each span is [from, to) in arbitrary units within [min, max].
type GanttRow struct {
	Label string
	Spans []GanttSpan
}

// GanttSpan is one bar of a Gantt row.
type GanttSpan struct {
	From, To float64
	Note     string
}

// Gantt renders the rows across [min, max] scaled to width characters.
func Gantt(title string, min, max float64, rows []GanttRow, width int) string {
	if max <= min {
		max = min + 1
	}
	labelW := 0
	for _, r := range rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, r := range rows {
		line := []byte(strings.Repeat(".", width))
		notes := ""
		for _, s := range r.Spans {
			from := int((s.From - min) / (max - min) * float64(width-1))
			to := int((s.To - min) / (max - min) * float64(width-1))
			if from < 0 {
				from = 0
			}
			if to >= width {
				to = width - 1
			}
			for c := from; c <= to && c < width; c++ {
				line[c] = '='
			}
			if s.Note != "" {
				notes += " [" + s.Note + "]"
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|%s\n", labelW, r.Label, string(line), notes)
	}
	return b.String()
}
