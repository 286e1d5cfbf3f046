package repro

// Figure-level benchmark harness: one benchmark per table/figure in the
// paper's evaluation, plus queue-operation microbenchmarks. Each iteration
// regenerates (a reduced version of) the experiment and reports the
// headline quantity as a custom metric, so `go test -bench=.` doubles as a
// regression check on the reproduction's shape. The cmd/ tools run the
// full-scale versions.

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/litmus"
	"repro/internal/litmusdsl"
	"repro/internal/measure"
	"repro/internal/native"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/tso"
)

// BenchmarkFig1_FenceOverhead regenerates Figure 1 (single-threaded fence
// overhead) and reports the normalized fence-free time of the most and
// least fence-sensitive programs.
func BenchmarkFig1_FenceOverhead(b *testing.B) {
	var fib, chol float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.Figure1(apps.SizeBench)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.App {
			case "Fib":
				fib = r.NormalizedPct
			case "cholesky":
				chol = r.NormalizedPct
			}
		}
	}
	b.ReportMetric(fib, "fib-normalized-%")
	b.ReportMetric(chol, "cholesky-normalized-%")
}

// BenchmarkFig7_CapacityWestmere regenerates the Figure 7 measurement on
// the Westmere model; the reported metric must stay 33.
func BenchmarkFig7_CapacityWestmere(b *testing.B) {
	benchCapacity(b, expt.Westmere())
}

// BenchmarkFig7_CapacityHaswell is the Haswell variant (metric 43).
func BenchmarkFig7_CapacityHaswell(b *testing.B) {
	benchCapacity(b, expt.HaswellP())
}

func benchCapacity(b *testing.B, p expt.Platform) {
	capacity := 0
	for i := 0; i < b.N; i++ {
		pts := measure.StoreBufferCapacity(p.Cfg, measure.CapacityOptions{
			MaxSeq: p.Cfg.ObservableBound() + 8, Iters: 16,
		})
		c, err := measure.DetectCapacity(pts, tso.DefaultCost)
		if err != nil {
			b.Fatal(err)
		}
		capacity = c
	}
	b.ReportMetric(float64(capacity), "measured-capacity")
}

// BenchmarkFig8_LitmusGrid runs a reduced Figure 8 grid per iteration and
// reports how many grid points each panel classifies as incorrect (panel
// a must find some; panel b only the L=0 coalescing point).
func BenchmarkFig8_LitmusGrid(b *testing.B) {
	var badA, badB float64
	for i := 0; i < b.N; i++ {
		res, err := expt.Figure8Ctx(context.Background(), litmus.Options{Tasks: 64, Seeds: 12, DrainBiases: []float64{0.02, 0.2}})
		if err != nil {
			b.Fatal(err)
		}
		badA, badB = 0, 0
		for _, gp := range res.PanelA {
			if !gp.Correct && gp.Delta >= gp.Alpha {
				badA++
			}
		}
		for _, gp := range res.PanelB {
			if !gp.Correct && gp.Delta >= gp.Alpha {
				badB++
			}
		}
	}
	b.ReportMetric(badA, "panelA-incorrect-on-line")
	b.ReportMetric(badB, "panelB-incorrect-on-line")
}

// BenchmarkRunner_Figure8Grid runs the same reduced Figure 8 grid through
// the experiment engine serially and on a GOMAXPROCS-wide pool. On a
// multi-core host the parallel sub-benchmark's ns/op shows the engine's
// speedup; the grid itself is identical either way (the determinism tests
// in internal/expt assert byte-equal renders).
func BenchmarkRunner_Figure8Grid(b *testing.B) {
	grid := func(b *testing.B, r *runner.Runner) {
		opts := litmus.Options{Tasks: 64, Seeds: 12, DrainBiases: []float64{0.02, 0.2}, Runner: r}
		for i := 0; i < b.N; i++ {
			if _, err := expt.Figure8Ctx(context.Background(), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { grid(b, nil) })
	b.Run("parallel", func(b *testing.B) { grid(b, runner.New(0)) })
}

// BenchmarkFig10_Westmere and BenchmarkFig10_Haswell regenerate reduced
// Figure 10 panels (test-size inputs, one scheduler seed) and report the
// geometric-mean normalized run time of THEP — the paper's headline.
func BenchmarkFig10_Westmere(b *testing.B) {
	benchFig10(b, expt.ScaledWestmere())
}

func BenchmarkFig10_Haswell(b *testing.B) {
	benchFig10(b, expt.ScaledHaswell())
}

func benchFig10(b *testing.B, p expt.Platform) {
	var thep, ffthe float64
	for i := 0; i < b.N; i++ {
		res, err := expt.Figure10Ctx(context.Background(), nil, p, apps.SizeTest, 1)
		if err != nil {
			b.Fatal(err)
		}
		thep = res.GeoMean["THEP"]
		ffthe = res.GeoMean["FF-THE d=4"]
	}
	b.ReportMetric(thep, "THEP-geomean-%")
	b.ReportMetric(ffthe, "FFTHE-d4-geomean-%")
}

// BenchmarkFig11_TransitiveClosure regenerates a reduced Figure 11 and
// reports FF-CL's normalized run time on the torus, the paper's
// biggest-gain input.
func BenchmarkFig11_TransitiveClosure(b *testing.B) {
	var ffcl float64
	for i := 0; i < b.N; i++ {
		res, err := expt.Figure11Ctx(context.Background(), nil, expt.ScaledHaswell(), 400, 1)
		if err != nil {
			b.Fatal(err)
		}
		ffcl = res.Rows[2].Cells["FF-CL"].NormalizedPct
	}
	b.ReportMetric(ffcl, "FFCL-torus-normalized-%")
}

// BenchmarkSimQueueOps measures raw simulated queue-operation throughput
// (put+take pairs per benchmark op) for each algorithm on the timed
// engine — the cost floor under every figure.
func BenchmarkSimQueueOps(b *testing.B) {
	for _, algo := range core.Algos {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			m := tso.NewTimedMachine(tso.Config{Threads: 1, BufferSize: 33})
			q := core.New(algo, m, 1<<12, 2)
			b.ResetTimer()
			err := m.Run(func(c tso.Context) {
				for i := 0; i < b.N; i++ {
					q.Put(c, uint64(i)+1)
					if _, st := q.Take(c); st != core.OK {
						b.Fail()
						return
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSimSchedulerFib measures end-to-end simulated scheduling cost:
// one fib run per iteration, reporting virtual cycles.
func BenchmarkSimSchedulerFib(b *testing.B) {
	for _, algo := range []core.Algo{core.AlgoTHE, core.AlgoTHEP} {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				app, _ := apps.ByName("Fib")
				m := tso.NewTimedMachine(tso.Config{Threads: 4, BufferSize: 13, DrainBuffer: true})
				p := sched.NewPool(m, sched.Options{Algo: algo, Delta: 7, Seed: int64(i)})
				root, verify := app.Build(apps.SizeTest)
				if _, err := p.Run(root); err != nil {
					b.Fatal(err)
				}
				if err := verify(); err != nil {
					b.Fatal(err)
				}
				cycles = m.Elapsed()
			}
			b.ReportMetric(float64(cycles), "virtual-cycles")
		})
	}
}

// BenchmarkNativeDeque measures the real library's owner-path throughput.
func BenchmarkNativeDeque(b *testing.B) {
	d := native.NewDeque[int](1 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PushBottom(i)
		if _, ok := d.PopBottom(); !ok {
			b.Fatal("pop failed")
		}
	}
}

// BenchmarkNativeDequeSteal measures the thief path against a prefilled
// deque.
func BenchmarkNativeDequeSteal(b *testing.B) {
	d := native.NewDeque[int](1 << 20)
	for i := 0; i < b.N; i++ {
		d.PushBottom(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Steal(); !ok {
			b.Fatal("steal failed")
		}
	}
}

// BenchmarkNativePoolSpawn measures pool task overhead with a wide flat
// graph.
func BenchmarkNativePoolSpawn(b *testing.B) {
	p := native.NewPool(native.Options{Workers: 4, Seed: 1})
	defer p.Close()
	b.ResetTimer()
	if err := p.Submit(func(c *native.Context) {
		for i := 0; i < b.N; i++ {
			c.Spawn(func(*native.Context) {})
		}
	}); err != nil {
		b.Fatal(err)
	}
	p.Wait()
}

// BenchmarkLitmusMatrix runs the classic litmus library exhaustively and
// reports the number of verdict mismatches (must stay 0) — the memory
// model's regression gauge.
func BenchmarkLitmusMatrix(b *testing.B) {
	failures := 0
	for i := 0; i < b.N; i++ {
		failures = 0
		for _, src := range litmusdsl.Library {
			t, err := litmusdsl.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			res, err := litmusdsl.Run(t, litmusdsl.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Ok() {
				failures++
			}
		}
	}
	b.ReportMetric(float64(failures), "verdict-mismatches")
}

// BenchmarkFig10_HaswellHT regenerates the hyperthreaded Figure 10 panel
// (reduced) and reports THEP's geomean — §8.1's compression check.
func BenchmarkFig10_HaswellHT(b *testing.B) {
	var thep float64
	for i := 0; i < b.N; i++ {
		res, err := expt.Figure10Ctx(context.Background(), nil, expt.HT(expt.ScaledHaswell()), apps.SizeTest, 1)
		if err != nil {
			b.Fatal(err)
		}
		thep = res.GeoMean["THEP"]
	}
	b.ReportMetric(thep, "THEP-HT-geomean-%")
}
