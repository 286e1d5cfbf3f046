package expt

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/litmus"
	"repro/internal/viz"
)

// WriteTable renders an aligned plain-text table.
func WriteTable(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// RenderFigure1 writes the Figure 1 table.
func RenderFigure1(w io.Writer, rows []Fig1Row) {
	fmt.Fprintln(w, "Figure 1: single-threaded execution time without the take() fence")
	fmt.Fprintln(w, "(normalized to the fenced THE baseline; lower is better)")
	fmt.Fprintln(w)
	body := make([][]string, len(rows))
	for i, r := range rows {
		body[i] = []string{
			r.App,
			fmt.Sprintf("%d", r.FencedCycles),
			fmt.Sprintf("%d", r.FencelessCycles),
			fmt.Sprintf("%.1f%%", r.NormalizedPct),
		}
	}
	WriteTable(w, []string{"Benchmark", "Fenced (cycles)", "Fence-free (cycles)", "Normalized"}, body)
	fmt.Fprintln(w)
	bars := make([]viz.Bar, len(rows))
	for i, r := range rows {
		bars[i] = viz.Bar{Label: r.App, Value: r.NormalizedPct}
	}
	viz.NormalizedChart(w, "", bars, 110)
}

// RenderFigure7 writes the capacity curve and its knee.
func RenderFigure7(w io.Writer, res Fig7Result) {
	fmt.Fprintf(w, "Figure 7: store buffer capacity measurement on %s (documented capacity %d)\n\n",
		res.Platform, res.RawCapacity)
	body := make([][]string, 0, len(res.Points))
	for i, pt := range res.Points {
		same := ""
		if i < len(res.SameLocation) {
			same = fmt.Sprintf("%.1f", res.SameLocation[i].CyclesPerIter)
		}
		marker := ""
		if pt.Stores == res.Measured {
			marker = "<- knee (measured capacity)"
		}
		body = append(body, []string{
			fmt.Sprintf("%d", pt.Stores),
			fmt.Sprintf("%.1f", pt.CyclesPerIter),
			same,
			marker,
		})
	}
	WriteTable(w, []string{"# stores", "cycles/iter", "same-loc cycles/iter", ""}, body)
	fmt.Fprintf(w, "\nMeasured capacity: %d (distinct locations), %d (same location)\n",
		res.Measured, res.SameMeasured)
}

// RenderFigure8Panel writes one panel's classification grid.
func RenderFigure8Panel(w io.Writer, title string, assumedS int, grid []litmus.GridPoint) {
	fmt.Fprintf(w, "%s (assuming S = %d)\n\n", title, assumedS)
	body := make([][]string, len(grid))
	for i, gp := range grid {
		verdict := "CORRECT"
		if !gp.Correct {
			verdict = "INCORRECT"
		}
		onLine := ""
		if gp.Delta >= gp.Alpha {
			onLine = "delta >= alpha"
		}
		body[i] = []string{
			fmt.Sprintf("%d", gp.Alpha),
			fmt.Sprintf("%d", gp.Delta),
			fmt.Sprintf("%v", gp.Ls),
			onLine,
			verdict,
		}
	}
	WriteTable(w, []string{"alpha=ceil(S/(L+1))", "delta", "L values", "region", "result"}, body)
	fmt.Fprintln(w)
}

// RenderFigure10 writes one platform's Figure 10 panel.
func RenderFigure10(w io.Writer, res Fig10Result) {
	fmt.Fprintf(w, "Figure 10: CilkPlus suite on %s (%d threads, observable bound S=%d)\n",
		res.Platform, res.Threads, res.DeltaS)
	fmt.Fprintln(w, "(median run time normalized to the THE baseline, %; lower is better)")
	fmt.Fprintln(w)
	headers := append([]string{"Benchmark"}, res.Variants...)
	body := make([][]string, 0, len(res.Rows)+1)
	for _, row := range res.Rows {
		cells := []string{row.App}
		for _, v := range res.Variants {
			c := row.Cells[v]
			cells = append(cells, fmt.Sprintf("%.1f", c.Median))
		}
		body = append(body, cells)
	}
	gm := []string{"Geo mean"}
	for _, v := range res.Variants {
		gm = append(gm, fmt.Sprintf("%.1f", res.GeoMean[v]))
	}
	body = append(body, gm)
	WriteTable(w, headers, body)
	fmt.Fprintln(w)
	bars := make([]viz.Bar, 0, len(res.Rows)+1)
	for _, row := range res.Rows {
		c := row.Cells["THEP"]
		note := ""
		if c.Median > 160 {
			note = "off scale"
		}
		bars = append(bars, viz.Bar{Label: row.App, Value: c.Median, Note: note})
	}
	bars = append(bars, viz.Bar{Label: "Geo mean", Value: res.GeoMean["THEP"]})
	viz.NormalizedChart(w, "THEP vs THE (the headline variant):", bars, 160)
	fmt.Fprintln(w)
}

// RenderFigure11 writes both Figure 11 panels.
func RenderFigure11(w io.Writer, res Fig11Result) {
	fmt.Fprintf(w, "Figure 11: %s\n", res.Platform)
	fmt.Fprintln(w, "(a) run time normalized to Chase-Lev (%), (b) work obtained by stealing (%)")
	fmt.Fprintln(w)
	algoLabels := make([]string, 0, 4)
	for _, a := range Figure11Algos() {
		algoLabels = append(algoLabels, a.Label)
	}
	headers := append([]string{"Input", "Metric"}, algoLabels...)
	var body [][]string
	for _, row := range res.Rows {
		timeCells := []string{row.Workload, "norm time %"}
		stealCells := []string{"", "stolen work %"}
		for _, a := range algoLabels {
			c := row.Cells[a]
			timeCells = append(timeCells, fmt.Sprintf("%.1f", c.NormalizedPct))
			stealCells = append(stealCells, fmt.Sprintf("%.3f", c.StolenPct))
		}
		body = append(body, timeCells, stealCells)
	}
	WriteTable(w, headers, body)
	fmt.Fprintln(w)
	for _, row := range res.Rows {
		bars := make([]viz.Bar, 0, 4)
		for _, a := range algoLabels {
			bars = append(bars, viz.Bar{Label: a, Value: row.Cells[a].NormalizedPct})
		}
		viz.NormalizedChart(w, row.Workload+":", bars, 120)
		fmt.Fprintln(w)
	}
}
