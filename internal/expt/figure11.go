package expt

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tso"
)

// Fig11Algo is one Figure 11 series.
type Fig11Algo struct {
	Label string
	Algo  core.Algo
}

// Figure11Algos returns the queues compared in Figure 11 (Chase-Lev is
// the normalization baseline): the paper's four, plus the fully
// read/write WS-MULT family as extra series — the same graph workloads
// priced without CAS anywhere, duplication bounded (WS-MULT) or merely
// finite (WS-MULT-R).
func Figure11Algos() []Fig11Algo {
	return []Fig11Algo{
		{"Chase-Lev", core.AlgoChaseLev},
		{"Idempotent DE", core.AlgoIdempotentDE},
		{"Idempotent LIFO", core.AlgoIdempotentLIFO},
		{"FF-CL", core.AlgoFFCL},
		{"WS-MULT", core.AlgoWSMult},
		{"WS-MULT-R", core.AlgoWSMultRelaxed},
	}
}

// Fig11Cell is one workload×algorithm measurement.
type Fig11Cell struct {
	NormalizedPct float64 // median run time vs Chase-Lev ×100 (Figure 11a)
	P10, P90      float64
	StolenPct     float64 // work obtained by stealing, percent (Figure 11b)
}

// Fig11Row groups the cells of one input graph.
type Fig11Row struct {
	Workload string
	Threads  int
	Baseline float64 // Chase-Lev median cycles
	Cells    map[string]Fig11Cell
}

// Fig11Result is the whole figure.
type Fig11Result struct {
	Platform string
	Rows     []Fig11Row
}

// Problem selects the §8.2 graph computation. The paper reports the
// transitive closure and notes "spanning tree results are similar"; both
// are available here.
type Problem int

const (
	// ProblemTransitiveClosure is Figure 11's reported workload.
	ProblemTransitiveClosure Problem = iota
	// ProblemSpanningTree is the companion workload.
	ProblemSpanningTree
)

func (p Problem) String() string {
	if p == ProblemSpanningTree {
		return "spanning tree"
	}
	return "transitive closure"
}

// build returns a fresh root task and verifier for the problem on g.
func (p Problem) build(g *graph.Graph, root int) (sched.TaskFunc, func() error) {
	if p == ProblemSpanningTree {
		return graph.SpanningTree(g, root)
	}
	return graph.TransitiveClosure(g, root)
}

// Figure11Ctx regenerates Figure 11: parallel transitive closure on the
// K-graph, random graph and torus, comparing Chase-Lev, the two
// idempotent queues and FF-CL, on a runner pool (nil r: serial) with
// cancellation. scale sets the graph sizes (see
// graph.Figure11Workloads); runs is the seeds-per-cell count.
func Figure11Ctx(ctx context.Context, r *runner.Runner, p Platform, scale, runs int) (Fig11Result, error) {
	return Figure11ProblemCtx(ctx, r, p, ProblemTransitiveClosure, scale, runs)
}

// fig11Cell is one scheduled traversal of the Figure 11 matrix: one
// workload under one queue with one scheduler seed. The input graph is
// built once per workload and shared read-only; every mutable structure
// (visited/parent arrays, machine, scheduler) is created inside the run.
type fig11Cell struct {
	wl      graph.Workload
	g       *graph.Graph
	al      Fig11Algo
	seed    int64
	problem Problem
}

// fig11Sample is one traversal's measured quantities.
type fig11Sample struct {
	cycles float64
	stolen float64
}

// Figure11ProblemCtx is Figure11Ctx generalized over the graph
// computation. The workload × algorithm × seed matrix runs as
// independent jobs and is folded in the fixed matrix order, so the
// figure is identical at any worker count.
func Figure11ProblemCtx(ctx context.Context, r *runner.Runner, p Platform, problem Problem, scale, runs int) (Fig11Result, error) {
	res := Fig11Result{Platform: fmt.Sprintf("%s on %s", problem, p.Name)}
	s := p.Cfg.ObservableBound()
	workloads := graph.Figure11Workloads(scale, p.Cfg.Threads)
	algos := Figure11Algos()
	var cells []fig11Cell
	for _, wl := range workloads {
		g := wl.Build()
		for _, al := range algos {
			for run := 0; run < runs; run++ {
				cells = append(cells, fig11Cell{wl: wl, g: g, al: al, seed: int64(run)*131 + 7, problem: problem})
			}
		}
	}
	name := func(_ int, c fig11Cell) string {
		return fmt.Sprintf("fig11 %s %s seed=%d", c.wl.Name, c.al.Label, c.seed)
	}
	samples, err := runner.Map(ctx, r, cells, name, func(_ context.Context, c fig11Cell) (fig11Sample, error) {
		cfg := p.Cfg
		cfg.Threads = c.wl.Threads
		m := tso.NewTimedMachine(cfg)
		defer m.Close()
		pool := sched.NewPool(m, sched.Options{Algo: c.al.Algo, Delta: core.DefaultDelta(s), Seed: c.seed})
		root, verify := c.problem.build(c.g, 0)
		st, err := pool.Run(root)
		if err != nil {
			return fig11Sample{}, fmt.Errorf("%s [%s]: %w", c.wl.Name, c.al.Label, err)
		}
		if err := verify(); err != nil {
			return fig11Sample{}, fmt.Errorf("%s [%s]: %w", c.wl.Name, c.al.Label, err)
		}
		return fig11Sample{cycles: float64(st.Elapsed), stolen: 100 * st.StolenFrac}, nil
	})
	if err != nil {
		return res, err
	}

	idx := 0
	for _, wl := range workloads {
		row := Fig11Row{Workload: wl.Name, Threads: wl.Threads, Cells: map[string]Fig11Cell{}}
		perAlgo := map[string][]fig11Sample{}
		for _, al := range algos {
			perAlgo[al.Label] = samples[idx : idx+runs]
			idx += runs
		}
		cyclesOf := func(label string) []float64 {
			out := make([]float64, 0, runs)
			for _, s := range perAlgo[label] {
				out = append(out, s.cycles)
			}
			return out
		}
		base := stats.Median(cyclesOf("Chase-Lev"))
		row.Baseline = base
		for _, al := range algos {
			sum := stats.Summarize(cyclesOf(al.Label))
			stolen := make([]float64, 0, runs)
			for _, s := range perAlgo[al.Label] {
				stolen = append(stolen, s.stolen)
			}
			row.Cells[al.Label] = Fig11Cell{
				NormalizedPct: 100 * sum.Median / base,
				P10:           100 * sum.P10 / base,
				P90:           100 * sum.P90 / base,
				StolenPct:     stats.Median(stolen),
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
