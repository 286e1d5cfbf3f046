package expt

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/tso"
	"repro/internal/viz"
)

// This file is the end of the observability pipeline: it runs one
// instrumented workload on a platform, bundles the machine's per-thread
// metric series with the scheduler's per-worker counters into a single
// report, and renders that report as text histograms/tables or as the
// stable JSON of reproduce's metrics section.

// MetricsReport bundles everything the observability layer records for one
// instrumented run: the machine-level series (per-thread occupancy, stall
// and drain-latency metrics), the machine's aggregate op counts, and the
// scheduler's per-worker steal-outcome counters.
type MetricsReport struct {
	// Platform names the simulated machine configuration.
	Platform string `json:"platform"`
	// Engine is "timed" or "chaos".
	Engine string `json:"engine"`
	// App is the workload that generated the series.
	App string `json:"app"`
	// Algo is the queue algorithm the scheduler ran.
	Algo string `json:"algo"`
	// Machine holds the per-thread metric series.
	Machine *tso.MachineMetrics `json:"machine"`
	// MachineStats is the machine's aggregate op counters.
	MachineStats tso.Stats `json:"machine_stats"`
	// Sched is the scheduler-level result, including per-worker counters.
	Sched sched.Stats `json:"sched"`
}

// CollectMetrics runs the standard observability workload — Fib at test
// size under THEP with the default δ — on an instrumented copy of the
// platform and returns the combined report. engine selects "timed" (the
// performance model) or "chaos" (the adversarial interleaver); the series'
// units follow the engine (virtual cycles vs. scheduler steps/forced
// drains). The run is seeded, so a report is reproducible per platform.
func CollectMetrics(p Platform, engine string) (MetricsReport, error) {
	cfg := p.Cfg
	cfg.Metrics = true
	cfg.Seed = 1

	var m sched.Machine
	switch engine {
	case "timed":
		m = tso.NewTimedMachine(cfg)
	case "chaos":
		m = tso.NewMachine(cfg)
	default:
		return MetricsReport{}, fmt.Errorf("expt: unknown metrics engine %q (want timed or chaos)", engine)
	}

	app, _ := apps.ByName("Fib")
	rep := MetricsReport{
		Platform: p.Name,
		Engine:   engine,
		App:      app.Name,
		Algo:     core.AlgoTHEP.String(),
	}
	pool := sched.NewPool(m, sched.Options{
		Algo:  core.AlgoTHEP,
		Delta: core.DefaultDelta(cfg.ObservableBound()),
		Seed:  1,
	})
	root, verify := app.Build(apps.SizeTest)
	st, err := pool.Run(root)
	if err != nil {
		return rep, fmt.Errorf("expt: metrics run: %w", err)
	}
	if err := verify(); err != nil {
		return rep, fmt.Errorf("expt: metrics run: %w", err)
	}
	mm := m.(interface{ Metrics() *tso.MachineMetrics })
	ms := m.(interface{ Stats() tso.Stats })
	rep.Machine = mm.Metrics()
	rep.MachineStats = ms.Stats()
	rep.Sched = st
	return rep, nil
}

// RenderMetrics writes the report as text: the aggregate occupancy
// histogram, a per-thread series table, and a per-worker steal-outcome
// table.
func RenderMetrics(w io.Writer, rep MetricsReport) {
	fmt.Fprintf(w, "Metrics: %s on the %s engine — %s under %s\n\n",
		rep.App, rep.Engine, rep.Platform, rep.Algo)

	unit := "steps"
	if rep.Engine == "timed" {
		unit = "cycles"
	}

	if rep.Machine != nil {
		agg := make([]int64, rep.Machine.Bound+1)
		for _, t := range rep.Machine.Threads {
			for k, c := range t.OccupancyHist {
				agg[k] += c
			}
		}
		viz.Histogram(w, fmt.Sprintf("Store-buffer occupancy at issue (all threads, bound %d):", rep.Machine.Bound), agg, viz.Options{})
		fmt.Fprintln(w)

		var rows [][]string
		for _, t := range rep.Machine.Threads {
			rows = append(rows, []string{
				fmt.Sprint(t.Thread),
				fmt.Sprint(t.MaxOccupancy),
				fmt.Sprintf("%.1f", t.MeanDrainLatency()),
				fmt.Sprint(t.DrainLatencyMax),
				fmt.Sprint(t.FenceStallCost),
				fmt.Sprint(t.CASStallCost),
				fmt.Sprint(t.ForwardLoads),
				fmt.Sprint(t.Coalesces),
			})
		}
		WriteTable(w, []string{"thread", "max occ",
			"drain lat mean (" + unit + ")", "max",
			"fence stall (" + unit + ")", "CAS stall (" + unit + ")",
			"fwd loads", "coalesces"}, rows)
		fmt.Fprintln(w)
	}

	if rep.Sched.Workers != nil {
		var rows [][]string
		for i, ws := range rep.Sched.Workers {
			rows = append(rows, []string{
				fmt.Sprint(i),
				fmt.Sprint(ws.Takes),
				fmt.Sprint(ws.Steals),
				fmt.Sprint(ws.Aborts),
				fmt.Sprint(ws.Empties),
			})
		}
		WriteTable(w, []string{"worker", "takes", "steals", "aborts", "empty/lost"}, rows)
		fmt.Fprintln(w)
	}

	s := rep.MachineStats
	fmt.Fprintf(w, "machine totals: %d loads, %d stores, %d fences, %d CASes, %d drains, %d coalesces, %d forwarded loads\n",
		s.Loads, s.Stores, s.Fences, s.CASes, s.Drains, s.Coalesces, s.ForwardLoads)
}
