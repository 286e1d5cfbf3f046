package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/litmus"
	"repro/internal/load"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tso"
)

// section is one `reproduce -quick` section: its id and a function that
// computes it and renders the text reproduce prints for it.
type section struct {
	id, title string
	render    func(r *runner.Runner, w io.Writer) error
}

// quickSections are reproduce's -quick sections with the cache off, at
// reproduce's quick sizes. The list is a copy of the section steps in
// cmd/reproduce/main.go (a main package, so not importable) and must be
// kept in step with it: the stored section digests check this copy,
// not reproduce itself.
func quickSections() []section {
	ctx := context.Background()
	return []section{
		{"table1", "Table 1 — benchmark applications", func(r *runner.Runner, w io.Writer) error {
			rows := make([][]string, 0, 11)
			for _, a := range apps.All() {
				rows = append(rows, []string{a.Name, a.Desc, a.PaperInput})
			}
			expt.WriteTable(w, []string{"Benchmark", "Description", "Input size (paper -> here)"}, rows)
			return nil
		}},
		{"figure1", "Figure 1 — single-threaded fence overhead", func(r *runner.Runner, w io.Writer) error {
			rows, err := expt.Figure1(apps.SizeTest)
			if err != nil {
				return err
			}
			expt.RenderFigure1(w, rows)
			fmt.Fprintln(w, "\npaper: Fib ~75%, Jacobi ~93%, QuickSort ~89%, Matmul ~95%,")
			fmt.Fprintln(w, "       Integrate ~80%, knapsack ~78%, cholesky ~97%")
			return nil
		}},
		{"figure7", "Figure 7 — store-buffer capacity", func(r *runner.Runner, w io.Writer) error {
			for _, p := range []expt.Platform{expt.Westmere(), expt.HaswellP()} {
				res, err := expt.Figure7(p)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s: measured %d (same-location: %d); paper: %d\n",
					res.Platform, res.Measured, res.SameMeasured, p.Cfg.ObservableBound())
			}
			return nil
		}},
		{"figure8", "Figure 8 — TSO[S] litmus grid", func(r *runner.Runner, w io.Writer) error {
			res, err := expt.Figure8Ctx(ctx, litmus.Options{Tasks: 64, Seeds: 15, DrainBiases: []float64{0.02, 0.2}, Runner: r})
			if err != nil {
				return err
			}
			expt.RenderFigure8Panel(w, "Figure 8a", 32, res.PanelA)
			expt.RenderFigure8Panel(w, "Figure 8b", 33, res.PanelB)
			fmt.Fprintln(w, "paper: 8a fails on the line exactly where ceil(32/(L+1)) divides;")
			fmt.Fprintln(w, "       8b correct on/above the line except L=0 (coalescing)")
			return nil
		}},
		{"figure10", "Figure 10 — CilkPlus suite", func(r *runner.Runner, w io.Writer) error {
			for _, p := range []expt.Platform{expt.ScaledWestmere(), expt.ScaledHaswell()} {
				res, err := expt.Figure10Ctx(ctx, r, p, apps.SizeTest, 2)
				if err != nil {
					return err
				}
				expt.RenderFigure10(w, res)
			}
			fmt.Fprintln(w, "paper: THEP up to -23% (avg -11/-13% on improved programs);")
			fmt.Fprintln(w, "       FF-THE default-delta collapses several programs, delta=4 recovers")
			return nil
		}},
		{"figure11", "Figure 11 — graph workloads", func(r *runner.Runner, w io.Writer) error {
			res, err := expt.Figure11Ctx(ctx, r, expt.ScaledHaswell(), 400, 2)
			if err != nil {
				return err
			}
			expt.RenderFigure11(w, res)
			fmt.Fprintln(w, "paper: fence-free queues comparable, ~17% over Chase-Lev;")
			fmt.Fprintln(w, "       stolen work well under 1% on random/torus")
			return nil
		}},
	}
}

// cell is one open-loop serving configuration on the reference platform
// (8 threads, S=11, drain stage; requests in bursts of 4 with 32 cycles
// of root work).
type cell struct {
	id     string
	algo   core.Algo
	delta  int
	knob   load.Knob
	gap    float64
	grain  uint64
	fanout int
}

// cellRequests × cellSeeds samples per cell leave more than ten beyond
// the p99.
const (
	cellRequests = 384
	cellSeeds    = 3
)

var (
	platform = tso.Config{Threads: 8, BufferSize: 11, DrainBuffer: true}
	knobBase = load.Knob{Name: "base", Victim: sched.VictimUniform, Batch: 1}
	knobs    = []load.Knob{knobBase,
		{Name: "batch8", Victim: sched.VictimUniform, Batch: 8},
		{Name: "last", Victim: sched.VictimLastSuccess, Batch: 1}}
)

// cells lists the fork/join cells (fanout 6, grain 64: the paper's
// exact queues under each knob at gap 200, base at gap 800) and the
// sequential cells (fanout 0, grain 256, gap 200, base) that bring in
// the WS-MULT family.
func cells() []cell {
	delta := core.DefaultDelta(platform.ObservableBound())
	type algo struct {
		name  string
		algo  core.Algo
		delta int
	}
	fj := []algo{{"the", core.AlgoTHE, 0}, {"ffthe", core.AlgoFFTHE, delta}, {"cl", core.AlgoChaseLev, 0}, {"ffcl", core.AlgoFFCL, delta}}
	var out []cell
	for _, a := range fj {
		for _, k := range knobs {
			out = append(out, cell{fmt.Sprintf("%s.fj.%s.g200", a.name, k.Name), a.algo, a.delta, k, 200, 64, 6})
		}
	}
	for _, a := range fj {
		out = append(out, cell{a.name + ".fj.base.g800", a.algo, a.delta, knobBase, 800, 64, 6})
	}
	seq := []algo{{"the", core.AlgoTHE, 0}, {"cl", core.AlgoChaseLev, 0}, {"ffcl", core.AlgoFFCL, delta},
		{"wsmult", core.AlgoWSMult, 0}, {"wsmultr", core.AlgoWSMultRelaxed, 0}}
	for _, a := range seq {
		out = append(out, cell{a.name + ".seq.base.g200", a.algo, a.delta, knobBase, 200, 256, 0})
	}
	return out
}

// cellResult aggregates a cell's seeds.
type cellResult struct {
	hist  *stats.Histogram
	sched sched.Stats
	host  time.Duration
}

func (r cellResult) perReq(n int64) float64 { return float64(n) / float64(r.hist.Count()) }

// simulate is the simulate workload: the reproduction sections, then
// the serving cells.
type simulate struct {
	seed     int64
	ref      *reference
	sections []section
	cells    []cell
	arrivals [][]int64 // per cell: the arrival seeds drawn from the run seed
	checked  bool      // BENCH_sched rows compared (once per process)
	last     map[string]cellResult
}

func newSimulate(seed int64, ref *reference) *simulate { return &simulate{seed: seed, ref: ref} }

// setup draws every cell's arrival seeds from the run seed and warms
// the timed engine and the scheduler with one short cell.
func (w *simulate) setup() error {
	w.sections = quickSections()
	w.cells = cells()
	rng := rand.New(rand.NewSource(w.seed))
	w.arrivals = make([][]int64, len(w.cells))
	for i := range w.cells {
		for s := 0; s < cellSeeds; s++ {
			w.arrivals[i] = append(w.arrivals[i], rng.Int63())
		}
	}
	warm := w.cells[0]
	_, err := load.Run(platform, sched.Options{Algo: warm.algo, Delta: warm.delta, Victim: warm.knob.Victim, BatchSteal: warm.knob.Batch, Seed: 1},
		load.Workload{Requests: 64, MeanGap: warm.gap, Burst: 4, Fanout: warm.fanout, Grain: warm.grain, RootWork: 32, Seed: 1})
	return err
}

func (w *simulate) close() {}

// runCell serves the cell's requests once per arrival seed; the
// scheduler's victim RNG is seeded from the arrival seed too.
func (w *simulate) runCell(i int) (cellResult, error) {
	c := w.cells[i]
	agg := cellResult{hist: &stats.Histogram{}}
	t0 := time.Now()
	for _, s := range w.arrivals[i] {
		res, err := load.Run(platform, sched.Options{Algo: c.algo, Delta: c.delta, Victim: c.knob.Victim, BatchSteal: c.knob.Batch, Seed: s ^ 0x5bd1e995},
			load.Workload{Requests: cellRequests, MeanGap: c.gap, Burst: 4, Fanout: c.fanout, Grain: c.grain, RootWork: 32, Seed: s})
		if err != nil {
			return agg, err
		}
		agg.hist.Merge(res.Hist)
		agg.sched.Executed += res.Sched.Executed
		agg.sched.Steals += res.Sched.Steals
		agg.sched.Aborts += res.Sched.Aborts
		agg.sched.Duplicates += res.Sched.Duplicates
	}
	agg.host = time.Since(t0)
	return agg, nil
}

// pass renders every section on a one-worker pool and serves every
// cell. A section fails when it errors or its text differs from the
// reference; a cell fails when it errors or an exactly-once queue
// duplicates a delivery.
func (w *simulate) pass(tr *tracer) (passResult, error) {
	var pr passResult
	w.last = map[string]cellResult{}
	root := tr.begin("pass", "simulate", 0)
	start := time.Now()
	for _, s := range w.sections {
		sp := tr.begin("expt."+s.id, s.id, root)
		t0 := time.Now()
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "\n%s\n%s\n\n", s.title, strings.Repeat("=", utf8.RuneCountInString(s.title)))
		err := s.render(&runner.Runner{Workers: 1}, &buf)
		d := time.Since(t0)
		tr.end(sp)
		pr.units = append(pr.units, unitTime{s.id, ms(d)})
		if err != nil {
			pr.checks.expect(false, "section %s: %v", s.id, err)
			continue
		}
		sum := sha256.Sum256(buf.Bytes())
		want, ok := w.ref.section(s.id, hex.EncodeToString(sum[:]))
		pr.checks.expect(ok, "section %s: rendered text digest %x, reference %s", s.id, sum, want)
	}
	for i, c := range w.cells {
		sp := tr.begin("load.cell", c.id, root)
		r, err := w.runCell(i)
		tr.end(sp)
		pr.units = append(pr.units, unitTime{c.id, ms(r.host)})
		if err != nil {
			pr.checks.expect(false, "cell %s: %v", c.id, err)
			continue
		}
		w.last[c.id] = r
		pr.checks.expect(!c.algo.ExactlyOnce() || r.sched.Duplicates == 0,
			"cell %s: exactly-once queue duplicated %d deliveries", c.id, r.sched.Duplicates)
	}
	pr.wall = time.Since(start)
	tr.end(root)
	if !w.checked && !w.ref.recording {
		w.checked = true
		c, err := w.checkBenchSched()
		if err != nil {
			return pr, err
		}
		pr.checks.add(c)
	}
	return pr, nil
}

// benchSchedPath is the serving sweep's checked-in reference.
const benchSchedPath = "results/BENCH_sched.json"

// checkBenchSched runs each cell's configuration at the reference
// sweep's size and seeds (256 requests × 3 seeds, as results/
// BENCH_sched.json was made) and requires equality with its row.
func (w *simulate) checkBenchSched() (checks, error) {
	var c checks
	data, err := os.ReadFile(benchSchedPath)
	if err != nil {
		return c, fmt.Errorf("serving reference: %w", err)
	}
	var rep load.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return c, fmt.Errorf("serving reference: %w", err)
	}
	want := map[string]load.Row{}
	for _, r := range rep.Rows {
		want[r.Key()] = r
	}
	fj := load.ReferenceSweep()
	fj.Grains = []uint64{64}
	fjBase := fj
	fj.Gaps, fj.Knobs = []float64{200}, knobs
	fjBase.Gaps, fjBase.Knobs = []float64{800}, []load.Knob{knobBase}
	seq := load.ReferenceMultSweep()
	seq.Gaps, seq.Knobs = []float64{200}, []load.Knob{knobBase}
	for _, sc := range []load.SweepConfig{fj, fjBase, seq} {
		rows, err := load.Sweep(context.Background(), runner.New(1), nil, sc)
		if err != nil {
			return c, fmt.Errorf("serving reference sweep: %w", err)
		}
		for _, r := range rows {
			ref, ok := want[r.Key()]
			c.expect(ok && reflect.DeepEqual(r, ref), "%s: serving row %+v, reference %+v", benchSchedPath, r, ref)
		}
	}
	return c, nil
}

// headlines are the cells whose latency quantiles are reported under
// the algorithm's name (p50_cycles.<name>, p99_cycles.<name>).
var headlines = map[string]string{"the.fj.base.g200": "the", "ffcl.fj.base.g200": "ffcl", "wsmult.seq.base.g200": "wsmult"}

// layers reports the section times, every cell's tail and steal-path
// rates, the three headline cells' latency quantiles, the scheduler's
// host cost per task and the histogram's cost per sample.
func (w *simulate) layers(tr *tracer, m map[string]metric) (checks, error) {
	for _, s := range w.sections {
		if s.id != "table1" {
			m["expt."+s.id+"_s"] = metric{tr.total("expt."+s.id, "").Seconds(), "s"}
		}
	}
	var host time.Duration
	var tasks int64
	for _, c := range w.cells {
		r := w.last[c.id]
		host += r.host
		tasks += r.sched.Executed
		if _, headline := headlines[c.id]; !headline {
			m["load.p99_cycles."+c.id] = metric{float64(r.hist.Quantile(0.99)), "cycles"}
		}
		if c.gap == 200 && (c.fanout > 0 || !c.algo.ExactlyOnce()) {
			m["load.steals_per_req."+c.id] = metric{r.perReq(r.sched.Steals), "count"}
		}
		if c.gap == 200 && c.algo.UsesDelta() {
			m["load.aborts_per_req."+c.id] = metric{r.perReq(r.sched.Aborts), "count"}
		}
		if !c.algo.ExactlyOnce() {
			m["load.dups_per_req."+c.id] = metric{r.perReq(r.sched.Duplicates), "count"}
		}
	}
	for id, name := range headlines {
		h := w.last[id].hist
		m["p50_cycles."+name] = metric{float64(h.Quantile(0.50)), "cycles"}
		m["p99_cycles."+name] = metric{float64(h.Quantile(0.99)), "cycles"}
	}
	m["sched.host_ns_per_task"] = metric{float64(host.Nanoseconds()) / float64(tasks), "ns"}
	m["stats.record_ns"] = metric{recordNS(), "ns"}
	return checks{}, nil
}

// recordNS times stats.Histogram.Record on latency-like values.
func recordNS() float64 {
	const n = 1 << 21
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 4096)
	for i := range vals {
		vals[i] = uint64(rng.ExpFloat64() * 20000)
	}
	var h stats.Histogram
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Record(vals[i&4095])
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}
