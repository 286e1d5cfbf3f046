// Command reproduce regenerates the paper's evaluation: Table 1 and
// Figures 1, 7, 8, 10 and 11, in order, with the paper's reference values
// noted next to each. It is the repository's one experiment command; each
// figure is a section of one table, and -only runs a chosen few.
//
// Usage:
//
//	reproduce [-quick] [-full] [-only id[,id...]] [-p N] [-json] [-cache] [-cachedir DIR] [-cpuprofile f] [-memprofile f]
//
// -quick uses reduced sizes and seeds (about 2 s on two CPUs); the
// default sizes take about 20 s, and -full about 45 s. -full adds the
// full sections: the Figure 7 capacity curves, Figure 10 with
// hyperthreading, the spanning-tree companion of Figure 11, the classic
// litmus matrix and the ablation studies. -only runs just the named
// sections, in table order, at the sizes -quick selects (-full has no
// effect then); it is the only way to run an on-demand section (metrics:
// an instrumented run with per-thread occupancy, stall and drain-latency
// series plus per-worker steal counters; store-buffering: sampled SB
// litmus tallies and the hidden-store lag table on TSO[4], without and
// with the drain stage). An unknown id lists the valid ones. -p sets the
// worker-pool size for the sweeps (default GOMAXPROCS; figures are
// byte-identical at any -p). -json writes one manifest of
// every section's result to stdout instead of the text tables.
// -cache=false disables the on-disk result cache (results/cache/ by
// default) that lets re-runs skip already-computed sections.
//
// Figures and tables go to stdout; progress, per-section timing and
// cache notes go to stderr, so stdout is byte-for-byte reproducible.
// A failing section is marked FAILED and the exit status reports which
// sections failed instead of dying mid-output; ^C cancels the remaining
// jobs and sections.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/apps"
	"repro/internal/expt"
	"repro/internal/litmus"
	"repro/internal/runner"
)

// config holds the sizes -quick selects. The exported fields key every
// cached section; the cache adds the code version itself.
type config struct {
	Quick  bool `json:"quick"`
	Runs   int  `json:"runs"`
	Scale  int  `json:"scale"`
	size   apps.Size
	litmus litmus.Options
}

// newConfig returns the -quick sizes or the default ones.
func newConfig(quick bool) config {
	if quick {
		return config{Quick: true, Runs: 2, Scale: 400, size: apps.SizeTest,
			litmus: litmus.Options{Tasks: 64, Seeds: 15, DrainBiases: []float64{0.02, 0.2}}}
	}
	return config{Runs: 5, Scale: 2000, size: apps.SizeBench,
		litmus: litmus.Options{Tasks: 512, Seeds: 60, DrainBiases: []float64{0.02, 0.15, 0.4}}}
}

// tier says when a section runs.
type tier int

const (
	quickTier    tier = iota // every run
	fullTier                 // added by -full
	onDemandTier             // only when -only names it
)

// section is one entry of the evaluation: its id (also its cache name
// and manifest entry), the title printed above it, its tier, and run,
// which computes the result through the cache and returns it with the
// function that renders it.
type section struct {
	id, title string
	tier      tier
	run       func(ctx context.Context, s *sweep, r *runner.Runner) (any, func(io.Writer), error)
}

// newSection builds a section from a typed compute and render: the
// result is looked up in, or stored to, the cache under the section id.
func newSection[T any](id, title string, t tier,
	compute func(ctx context.Context, c config, r *runner.Runner) (T, error),
	render func(w io.Writer, v T)) section {
	run := func(ctx context.Context, s *sweep, r *runner.Runner) (any, func(io.Writer), error) {
		v, hit, err := runner.Cached(s.cache, id, s.cfg, func() (T, error) { return compute(ctx, s.cfg, r) })
		if hit {
			fmt.Fprintf(s.errW, "[%s: cached]\n", id)
		}
		if err != nil {
			return nil, nil, err
		}
		return v, func(w io.Writer) { render(w, v) }, nil
	}
	return section{id: id, title: title, tier: t, run: run}
}

// sections is the evaluation in output order.
var sections = []section{
	newSection("table1", "Table 1 — benchmark applications", quickTier,
		func(context.Context, config, *runner.Runner) ([][]string, error) {
			rows := make([][]string, 0, 11)
			for _, a := range apps.All() {
				rows = append(rows, []string{a.Name, a.Desc, a.PaperInput})
			}
			return rows, nil
		},
		func(w io.Writer, rows [][]string) {
			expt.WriteTable(w, []string{"Benchmark", "Description", "Input size (paper -> here)"}, rows)
		}),

	newSection("figure1", "Figure 1 — single-threaded fence overhead", quickTier,
		func(_ context.Context, c config, _ *runner.Runner) ([]expt.Fig1Row, error) {
			return expt.Figure1(c.size)
		},
		func(w io.Writer, rows []expt.Fig1Row) {
			expt.RenderFigure1(w, rows)
			fmt.Fprintln(w, "\npaper: Fib ~75%, Jacobi ~93%, QuickSort ~89%, Matmul ~95%,")
			fmt.Fprintln(w, "       Integrate ~80%, knapsack ~78%, cholesky ~97%")
		}),

	newSection("figure7", "Figure 7 — store-buffer capacity", quickTier, figure7,
		func(w io.Writer, results []expt.Fig7Result) {
			bounds := map[string]int{
				expt.Westmere().Name: expt.Westmere().Cfg.ObservableBound(),
				expt.HaswellP().Name: expt.HaswellP().Cfg.ObservableBound(),
			}
			for _, res := range results {
				fmt.Fprintf(w, "%s: measured %d (same-location: %d); paper: %d\n",
					res.Platform, res.Measured, res.SameMeasured, bounds[res.Platform])
			}
		}),

	newSection("figure8", "Figure 8 — TSO[S] litmus grid", quickTier,
		func(ctx context.Context, c config, r *runner.Runner) (expt.Fig8Result, error) {
			opts := c.litmus
			opts.Runner = r
			return expt.Figure8Ctx(ctx, opts)
		},
		func(w io.Writer, res expt.Fig8Result) {
			expt.RenderFigure8Panel(w, "Figure 8a", 32, res.PanelA)
			expt.RenderFigure8Panel(w, "Figure 8b", 33, res.PanelB)
			fmt.Fprintln(w, "paper: 8a fails on the line exactly where ceil(32/(L+1)) divides;")
			fmt.Fprintln(w, "       8b correct on/above the line except L=0 (coalescing)")
		}),

	newSection("figure10", "Figure 10 — CilkPlus suite", quickTier, figure10(false),
		func(w io.Writer, results []expt.Fig10Result) {
			for _, res := range results {
				expt.RenderFigure10(w, res)
			}
			fmt.Fprintln(w, "paper: THEP up to -23% (avg -11/-13% on improved programs);")
			fmt.Fprintln(w, "       FF-THE default-delta collapses several programs, delta=4 recovers")
		}),

	newSection("figure11", "Figure 11 — graph workloads", quickTier,
		func(ctx context.Context, c config, r *runner.Runner) (expt.Fig11Result, error) {
			return expt.Figure11Ctx(ctx, r, expt.ScaledHaswell(), c.Scale, c.Runs)
		},
		func(w io.Writer, res expt.Fig11Result) {
			expt.RenderFigure11(w, res)
			fmt.Fprintln(w, "paper: fence-free queues comparable, ~17% over Chase-Lev;")
			fmt.Fprintln(w, "       stolen work well under 1% on random/torus")
		}),

	newSection("figure7-curves", "Figure 7 — capacity curves", fullTier, figure7,
		func(w io.Writer, results []expt.Fig7Result) {
			for i, res := range results {
				if i > 0 {
					fmt.Fprintln(w)
				}
				expt.RenderFigure7(w, res)
			}
		}),

	newSection("figure10-ht", "Figure 10 with hyperthreading (§8.1)", fullTier, figure10(true),
		func(w io.Writer, results []expt.Fig10Result) {
			for _, res := range results {
				expt.RenderFigure10(w, res)
			}
			fmt.Fprintln(w, "paper: HT shrinks the fence-removal benefit (Haswell 11% -> 7%)")
		}),

	newSection("figure11-spanning", "Figure 11 companion — spanning tree", fullTier,
		func(ctx context.Context, c config, r *runner.Runner) (expt.Fig11Result, error) {
			return expt.Figure11ProblemCtx(ctx, r, expt.ScaledHaswell(), expt.ProblemSpanningTree, c.Scale, c.Runs)
		},
		func(w io.Writer, res expt.Fig11Result) {
			expt.RenderFigure11(w, res)
			fmt.Fprintln(w, "paper: \"spanning tree results are similar\"")
		}),

	newSection("litmus-matrix", "Memory-model validation — classic litmus matrix", fullTier,
		func(ctx context.Context, _ config, r *runner.Runner) ([]expt.MatrixRow, error) {
			return expt.LitmusMatrix(ctx, r)
		},
		expt.RenderLitmusMatrix),

	newSection("ablations", "Ablations", fullTier, ablations, renderAblations),

	newSection("metrics", "Observability — instrumented metrics run", onDemandTier,
		func(context.Context, config, *runner.Runner) (expt.MetricsReport, error) {
			return expt.CollectMetrics(expt.ScaledHaswell(), "timed")
		},
		expt.RenderMetrics),

	newSection("store-buffering", "Abstract machine — store buffering and hidden-store lag", onDemandTier,
		func(context.Context, config, *runner.Runner) ([]expt.StoreBufferingResult, error) {
			return expt.StoreBuffering(), nil
		},
		expt.RenderStoreBuffering),
}

// figure7 measures the store-buffer capacity of both unscaled platforms.
func figure7(context.Context, config, *runner.Runner) ([]expt.Fig7Result, error) {
	var out []expt.Fig7Result
	for _, p := range []expt.Platform{expt.Westmere(), expt.HaswellP()} {
		res, err := expt.Figure7(p)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// figure10 runs the CilkPlus suite on both scaled platforms, with
// hyperthreading when ht is set.
func figure10(ht bool) func(context.Context, config, *runner.Runner) ([]expt.Fig10Result, error) {
	return func(ctx context.Context, c config, r *runner.Runner) ([]expt.Fig10Result, error) {
		var out []expt.Fig10Result
		for _, p := range []expt.Platform{expt.ScaledWestmere(), expt.ScaledHaswell()} {
			if ht {
				p = expt.HT(p)
			}
			res, err := expt.Figure10Ctx(ctx, r, p, c.size, c.Runs)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
		return out, nil
	}
}

// study is one ablation: a titled sweep plus the sentences that say what
// it demonstrates. See internal/expt/ablation.go for each sweep.
type study struct {
	title   string
	prose   []string
	compute func() ([]expt.AblationRow, error)
}

var studies = []study{
	{
		title:   "Ablation 1: client stores between takes (x) with the matching sound delta = ceil(S/(x+1))",
		prose:   []string{"More client stores shrink delta, letting thieves steal from shallower queues (§4)."},
		compute: func() ([]expt.AblationRow, error) { return expt.AblationClientStores(expt.ScaledHaswell()) },
	},
	{
		title: "Ablation 2: FF-THE delta sweep on Fib (fixed workload)",
		prose: []string{
			"Once delta exceeds the queue's typical depth, aborts replace steals and the",
			"run collapses toward single-threaded time — Figure 10's FF-THE pathology, isolated.",
		},
		compute: func() ([]expt.AblationRow, error) { return expt.AblationDeltaCliff(expt.ScaledHaswell()) },
	},
	{
		title: "Ablation 3: drain latency vs single-threaded fence overhead on Fib (normalized = fence-free/fenced)",
		prose: []string{
			"The fence penalty is store-drain latency made visible: overhead grows with it,",
			"confirming the modelled mechanism behind Figure 1.",
		},
		compute: expt.AblationDrainLatency,
	},
	{
		title: "Ablation 5: worker scaling (THEP, Fib)",
		prose: []string{
			"The runtime parallelizes: makespan falls as workers are added (not a paper",
			"figure; a sanity check that the scheduler under the figures actually scales).",
		},
		compute: func() ([]expt.AblationRow, error) {
			return expt.AblationWorkerScaling(expt.Figure10Variants()[3].Algo, 7, []int{1, 2, 4, 8})
		},
	},
	{
		title: "Ablation 4: failed-steal backoff on a wide flat graph",
		prose: []string{
			"The runtime's backoff is not load-bearing for the paper's comparisons: all",
			"algorithms share it, and its effect is small next to the fence/delta effects.",
		},
		compute: func() ([]expt.AblationRow, error) { return expt.AblationStealBackoff(expt.ScaledHaswell()) },
	},
}

// ablationResult is one study's rows in the manifest.
type ablationResult struct {
	Title string             `json:"title"`
	Rows  []expt.AblationRow `json:"rows"`
}

// ablations runs the independent studies as jobs on the section's pool.
func ablations(ctx context.Context, _ config, r *runner.Runner) ([]ablationResult, error) {
	name := func(_ int, s study) string { return s.title }
	return runner.Map(ctx, r, studies, name, func(_ context.Context, s study) (ablationResult, error) {
		rows, err := s.compute()
		return ablationResult{Title: s.title, Rows: rows}, err
	})
}

// renderAblations prints each study with the prose that explains it.
func renderAblations(w io.Writer, results []ablationResult) {
	for i, res := range results {
		expt.RenderAblation(w, res.Title, res.Rows)
		for _, line := range studies[i].prose {
			fmt.Fprintln(w, line)
		}
		if i < len(results)-1 {
			fmt.Fprintln(w)
		}
	}
}

// selectSections returns the sections a run executes, in table order:
// the named ones under -only, otherwise the quick tier plus, under
// -full, the full tier.
func selectSections(only string, full bool) ([]section, error) {
	if only == "" {
		var out []section
		for _, s := range sections {
			if s.tier == quickTier || full && s.tier == fullTier {
				out = append(out, s)
			}
		}
		return out, nil
	}
	var ids []string
	known := map[string]bool{}
	for _, s := range sections {
		ids = append(ids, s.id)
		known[s.id] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		switch {
		case !known[id]:
			return nil, fmt.Errorf("-only: unknown section %q (valid: %s)", id, strings.Join(ids, ", "))
		case want[id]:
			return nil, fmt.Errorf("-only: section %q named twice", id)
		}
		want[id] = true
	}
	var out []section
	for _, s := range sections {
		if want[s.id] {
			out = append(out, s)
		}
	}
	return out, nil
}

// sweep bundles a run's execution state: where text output goes, where
// progress goes, the worker pool size, the sizes and the result cache.
type sweep struct {
	out      io.Writer // figures/tables (stdout, or discarded under -json)
	errW     io.Writer // progress, timings, cache notes
	workers  int
	cfg      config
	cache    *runner.Cache
	manifest []expt.ManifestEntry
	failures []string
}

func main() {
	ctx, stop := runner.SignalContext(context.Background())
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, runs the selected sections and
// returns the exit status (0 ok, 1 a section failed, 2 bad usage).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "reproduce: ", 0)
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced sizes and seeds")
	full := fs.Bool("full", false, "also run the full sections (curves, hyperthreading, spanning tree, litmus matrix, ablations)")
	only := fs.String("only", "", "run only these comma-separated section ids, in table order")
	workers := fs.Int("p", 0, "worker-pool size for the sweeps (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit one JSON manifest of all section results instead of tables")
	useCache := fs.Bool("cache", true, "reuse cached section results from -cachedir")
	cacheDir := fs.String("cachedir", runner.DefaultCacheDir, "result cache directory")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap (allocs) profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	selected, err := selectSections(*only, *full)
	if err != nil {
		logger.Print(err)
		return 2
	}

	stopProfiles, err := runner.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		logger.Print(err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			logger.Print(err)
		}
	}()

	s := &sweep{out: stdout, errW: stderr, workers: *workers, cfg: newConfig(*quick)}
	if *jsonOut {
		s.out = io.Discard
	}
	if *useCache {
		c, err := runner.OpenCache(*cacheDir)
		if err != nil {
			logger.Printf("cache disabled: %v", err)
		} else {
			s.cache = c
		}
	}

	start := time.Now()
	for _, sec := range selected {
		s.step(ctx, sec)
	}
	if *jsonOut {
		if err := expt.WriteManifestJSON(stdout, s.manifest); err != nil {
			logger.Print(err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "\nall experiments regenerated in %v\n", time.Since(start).Round(time.Second))
	for _, f := range s.failures {
		logger.Printf("FAILED %s", f)
	}
	if len(s.failures) > 0 {
		return 1
	}
	return 0
}

// step runs one section: header to the text writer, the section body on
// a fresh pool wearing this section's progress reporter, then either the
// rendered figure plus a manifest entry, or a FAILED marker. A failed
// section does not stop the run (unless the context is cancelled).
func (s *sweep) step(ctx context.Context, sec section) {
	fmt.Fprintf(s.out, "\n%s\n%s\n\n", sec.title, strings.Repeat("=", utf8.RuneCountInString(sec.title)))
	if err := ctx.Err(); err != nil {
		s.fail(sec.title, err)
		return
	}
	prog := runner.NewProgress(s.errW, sec.title, 0)
	r := &runner.Runner{Workers: s.workers, Progress: prog}
	start := time.Now()
	data, render, err := sec.run(ctx, s, r)
	prog.Finish()
	if err != nil {
		s.fail(sec.title, err)
		return
	}
	render(s.out)
	s.manifest = append(s.manifest, expt.ManifestEntry{Experiment: sec.id, Data: data})
	fmt.Fprintf(s.errW, "[%s in %v]\n", sec.title, time.Since(start).Round(time.Millisecond))
}

// fail records a failed or skipped section on both streams.
func (s *sweep) fail(title string, err error) {
	s.failures = append(s.failures, fmt.Sprintf("%s: %v", title, err))
	fmt.Fprintf(s.out, "FAILED: %v\n", err)
	fmt.Fprintf(s.errW, "[%s FAILED: %v]\n", title, err)
}
