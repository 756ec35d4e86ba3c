package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Demo", "Region", "Rate", "N")
	tb.RawRow("afrinic", "11.8%", "3901")
	tb.RawRow("ripencc", "33.0%", "68200")
	s := tb.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "=") {
		t.Errorf("missing title/underline:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Data lines must align: the "Rate" column starts at the same offset.
	var dataLines []string
	for _, l := range lines {
		if strings.HasPrefix(l, "afrinic") || strings.HasPrefix(l, "ripencc") {
			dataLines = append(dataLines, l)
		}
	}
	if len(dataLines) != 2 {
		t.Fatalf("data lines: %v", dataLines)
	}
	if strings.Index(dataLines[0], "11.8%") != strings.Index(dataLines[1], "33.0%") {
		t.Errorf("columns unaligned:\n%s", s)
	}
}

func TestTableRawRowAndRagged(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.RawRow("x")
	tb.RawRow("yy", "zz", "extra")
	s := tb.String()
	if !strings.Contains(s, "extra") {
		t.Errorf("ragged row dropped:\n%s", s)
	}
}

func TestCDFRender(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.5, 0.9, 1.0}
	s := CDF("test cdf", "fraction", xs, 40, 10)
	if !strings.Contains(s, "test cdf") || !strings.Contains(s, "*") {
		t.Errorf("bad CDF:\n%s", s)
	}
	if CDF("empty", "x", nil, 40, 10) != "empty: (no data)\n" {
		t.Error("empty CDF should say no data")
	}
	// Degenerate: all samples equal must not divide by zero.
	s2 := CDF("flat", "x", []float64{5, 5, 5}, 20, 5)
	if !strings.Contains(s2, "*") {
		t.Errorf("flat CDF:\n%s", s2)
	}
}

func TestTimeSeriesRender(t *testing.T) {
	s := TimeSeries("roas", [2]string{"2019", "2022"}, []Series{
		{Name: "signed", Points: []float64{1, 2, 3, 4}},
		{Name: "routed", Points: []float64{1, 1.9, 2.7, 3.5}},
	}, 40, 8)
	if !strings.Contains(s, "signed") || !strings.Contains(s, "routed") {
		t.Errorf("legend missing:\n%s", s)
	}
	if !strings.Contains(s, "*") || !strings.Contains(s, "o") {
		t.Errorf("marks missing:\n%s", s)
	}
	if TimeSeries("none", [2]string{"a", "b"}, nil, 10, 5) != "none: (no data)\n" {
		t.Error("empty series")
	}
	// Constant series must not divide by zero.
	s2 := TimeSeries("const", [2]string{"a", "b"}, []Series{{Name: "c", Points: []float64{2, 2}}}, 10, 5)
	if !strings.Contains(s2, "*") {
		t.Errorf("const series:\n%s", s2)
	}
}

func TestGanttRender(t *testing.T) {
	s := Gantt("timeline", 0, 100, []GanttRow{
		{Label: "132.255.0.0/22", Spans: []GanttSpan{{From: 0, To: 40, Note: "owner"}, {From: 60, To: 100, Note: "hijack"}}},
		{Label: "x", Spans: nil},
	}, 50)
	if !strings.Contains(s, "=") || !strings.Contains(s, "[owner]") || !strings.Contains(s, "[hijack]") {
		t.Errorf("bad gantt:\n%s", s)
	}
	// Out-of-range spans are clamped, not panicking.
	s2 := Gantt("clamp", 0, 10, []GanttRow{
		{Label: "y", Spans: []GanttSpan{{From: -5, To: 50}}},
	}, 20)
	if !strings.Contains(s2, "====") {
		t.Errorf("clamped span:\n%s", s2)
	}
}
