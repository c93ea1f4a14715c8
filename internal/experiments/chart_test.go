package experiments

import (
	"strings"
	"testing"
)

func TestChartRenderBasics(t *testing.T) {
	ch := &Chart{
		Title:  "test",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "a", Marker: '*', X: []float64{1, 2, 3}, Y: []float64{1, 4, 9}},
		},
	}
	out := ch.Render()
	if !strings.Contains(out, "test") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("missing marker")
	}
	if !strings.Contains(out, "legend: * = a") {
		t.Fatal("missing legend")
	}
	// Highest y value should appear on the first plot row.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "9") {
		t.Fatalf("top axis label missing: %q", lines[1])
	}
}

func TestChartEmpty(t *testing.T) {
	ch := &Chart{Title: "empty"}
	if out := ch.Render(); !strings.Contains(out, "no data") {
		t.Fatalf("empty chart rendering: %q", out)
	}
}

func TestChartLogScales(t *testing.T) {
	ch := &Chart{
		Title: "log",
		LogX:  true, LogY: true,
		Series: []Series{
			{Name: "pow", Marker: 'o', X: []float64{1, 10, 100, 1000}, Y: []float64{1, 10, 100, 1000}},
		},
		Width: 31, Height: 11,
	}
	out := ch.Render()
	// On log-log axes a power law is a straight line: markers should be
	// evenly spaced across columns. Find marker columns.
	var cols []int
	for _, line := range strings.Split(out, "\n") {
		bar := strings.Index(line, "|")
		if bar < 0 {
			continue // title/axis/legend lines
		}
		if idx := strings.IndexByte(line[bar:], 'o'); idx >= 0 {
			cols = append(cols, bar+idx)
		}
	}
	if len(cols) != 4 {
		t.Fatalf("expected 4 marker rows, got %d\n%s", len(cols), out)
	}
	gap1 := cols[1] - cols[0]
	for i := 2; i < len(cols); i++ {
		g := cols[i] - cols[i-1]
		if g < gap1-1 || g > gap1+1 {
			t.Fatalf("log-log power law not straight: gaps %v\n%s", cols, out)
		}
	}
}

func TestChartDegenerateRange(t *testing.T) {
	// A single point (zero range) must not divide by zero.
	ch := &Chart{
		Title:  "point",
		Series: []Series{{Name: "p", Marker: 'x', X: []float64{5}, Y: []float64{5}}},
	}
	if out := ch.Render(); !strings.Contains(out, "x") {
		t.Fatal("single point not rendered")
	}
}

func TestTableWithChartRenders(t *testing.T) {
	tbl := &Table{ID: "T", Title: "t", SlideRef: "s", Header: []string{"a"}}
	tbl.AddRow("1")
	tbl.Charts = append(tbl.Charts, &Chart{
		Title:  "fig",
		Series: []Series{{Name: "s", Marker: '*', X: []float64{1, 2}, Y: []float64{1, 2}}},
	})
	if out := tbl.Render(); !strings.Contains(out, "fig") {
		t.Fatal("chart missing from table rendering")
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "```") || !strings.Contains(md, "fig") {
		t.Fatal("chart missing from markdown rendering")
	}
}

func TestAddRowValidation(t *testing.T) {
	e := Experiment{ID: "T", run: func() (*Table, error) {
		tbl := &Table{ID: "T", Header: []string{"a", "b"}}
		tbl.AddRow("1", "2")
		tbl.AddRow("only one")
		tbl.AddRow("3", "4")
		return tbl, nil
	}}
	_, err := e.Run()
	if err == nil || err.Error() != "row 2 has 1 cells, header has 2" {
		t.Fatalf("Run() error = %v, want the short row 2", err)
	}
}

func TestByID(t *testing.T) {
	if ByID("E01") == nil || ByID("A06") == nil {
		t.Fatal("known experiments missing")
	}
	if ByID("E99") != nil {
		t.Fatal("unknown experiment found")
	}
}
