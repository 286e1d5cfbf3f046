package expt

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Fig10Cell is one bar of Figure 10: a variant's run time on one app,
// normalized to the THE baseline (percent; <100 is faster than Cilk).
type Fig10Cell struct {
	Median float64 // normalized median
	P10    float64
	P90    float64
}

// Fig10Row is one app's group of bars.
type Fig10Row struct {
	App            string
	BaselineCycles float64 // THE median, virtual cycles
	Cells          map[string]Fig10Cell
}

// Fig10Result is one platform's panel.
type Fig10Result struct {
	Platform string
	Threads  int
	DeltaS   int // the observable bound used for default δ
	Variants []string
	Rows     []Fig10Row
	// GeoMean maps variant label to the geometric mean of normalized
	// medians — the paper's "Geo mean" group.
	GeoMean map[string]float64
}

// fig10Cell is one scheduled measurement of the Figure 10 matrix: one
// app under one queue configuration with one scheduler seed.
type fig10Cell struct {
	app   apps.App
	label string
	opt   sched.Options
}

// fig10Cells flattens the app × (baseline + variants) × seed matrix in
// the canonical aggregation order. The seed formula reproduces the
// paper's "run each program 10 times and report the median" methodology,
// with scheduler seeds providing the run-to-run variation that
// wall-clock noise provides on hardware.
func fig10Cells(variants []Variant, s, runs int) []fig10Cell {
	var cells []fig10Cell
	for _, app := range apps.All() {
		for r := 0; r < runs; r++ {
			cells = append(cells, fig10Cell{app: app, label: "THE",
				opt: sched.Options{Algo: core.AlgoTHE, Seed: int64(r)*7919 + 13}})
		}
		for _, v := range variants {
			for r := 0; r < runs; r++ {
				cells = append(cells, fig10Cell{app: app, label: v.Label,
					opt: sched.Options{Algo: v.Algo, Delta: v.Delta(s), Seed: int64(r)*7919 + 13}})
			}
		}
	}
	return cells
}

// Figure10Ctx regenerates one panel of Figure 10 (10a: Westmere, 10b:
// Haswell): the 11-program suite under the five fence-free variants,
// normalized to the default (THE) runtime, median of `runs` scheduler
// seeds with p10/p90. It runs on a runner pool (nil r: serial) with
// cancellation: the whole app × algorithm × seed matrix is flattened to
// independent jobs — each builds its own timed machine and scheduler —
// then aggregated in the fixed matrix order, so the panel is identical
// at any worker count.
func Figure10Ctx(ctx context.Context, r *runner.Runner, p Platform, size apps.Size, runs int) (Fig10Result, error) {
	s := p.Cfg.ObservableBound()
	threads := p.Cfg.Threads
	res := Fig10Result{
		Platform: p.Name,
		Threads:  threads,
		DeltaS:   s,
		GeoMean:  map[string]float64{},
	}
	variants := Figure10Variants()
	for _, v := range variants {
		res.Variants = append(res.Variants, v.Label)
	}
	cells := fig10Cells(variants, s, runs)
	name := func(_ int, c fig10Cell) string {
		return fmt.Sprintf("fig10 %s %s seed=%d", c.app.Name, c.label, c.opt.Seed)
	}
	samples, err := runner.Map(ctx, r, cells, name, func(_ context.Context, c fig10Cell) (float64, error) {
		cycles, _, err := runApp(c.app, size, p.Cfg, threads, c.opt)
		return float64(cycles), err
	})
	if err != nil {
		return res, err
	}

	perVariant := map[string][]float64{}
	idx := 0
	take := func() []float64 { out := samples[idx : idx+runs]; idx += runs; return out }
	for _, app := range apps.All() {
		base := take()
		row := Fig10Row{App: app.Name, Cells: map[string]Fig10Cell{}}
		baseMed := stats.Median(base)
		row.BaselineCycles = baseMed
		for _, v := range variants {
			sum := summarize(take())
			cell := Fig10Cell{
				Median: 100 * sum.Median / baseMed,
				P10:    100 * sum.P10 / baseMed,
				P90:    100 * sum.P90 / baseMed,
			}
			row.Cells[v.Label] = cell
			perVariant[v.Label] = append(perVariant[v.Label], cell.Median)
		}
		res.Rows = append(res.Rows, row)
	}
	for label, meds := range perVariant {
		res.GeoMean[label] = stats.GeoMean(meds)
	}
	return res, nil
}
