// Command ablate runs the reproduction's ablation studies: the design
// choices behind the figures, isolated one at a time. See
// internal/expt/ablation.go for what each sweep demonstrates.
//
// Usage:
//
//	ablate [-metrics] [-p N]
//
// The five studies are independent, so they run as jobs on a worker pool
// (-p 0 = GOMAXPROCS) and render in a fixed order — the output is
// byte-identical at any pool size. -metrics appends an instrumented
// timed-engine run on the studies' platform. ^C cancels the studies not
// yet started.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/expt"
	"repro/internal/runner"
)

// study is one ablation: a titled sweep plus the sentence that says what
// it demonstrates.
type study struct {
	title   string
	prose   []string
	compute func() ([]expt.AblationRow, error)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablate: ")
	metrics := flag.Bool("metrics", false, "append an instrumented timed-engine metrics run")
	workers := flag.Int("p", 0, "worker-pool size for the studies (0 = GOMAXPROCS)")
	flag.Parse()
	p := expt.ScaledHaswell()

	studies := []study{
		{
			title:   "Ablation 1: client stores between takes (x) with the matching sound delta = ceil(S/(x+1))",
			prose:   []string{"More client stores shrink delta, letting thieves steal from shallower queues (§4)."},
			compute: func() ([]expt.AblationRow, error) { return expt.AblationClientStores(p) },
		},
		{
			title: "Ablation 2: FF-THE delta sweep on Fib (fixed workload)",
			prose: []string{
				"Once delta exceeds the queue's typical depth, aborts replace steals and the",
				"run collapses toward single-threaded time — Figure 10's FF-THE pathology, isolated.",
			},
			compute: func() ([]expt.AblationRow, error) { return expt.AblationDeltaCliff(p) },
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
			compute: func() ([]expt.AblationRow, error) { return expt.AblationStealBackoff(p) },
		},
	}

	ctx, stop := runner.SignalContext(context.Background())
	defer stop()
	prog := runner.NewProgress(os.Stderr, "ablations", 0)
	pool := &runner.Runner{Workers: *workers, Progress: prog}
	name := func(_ int, s study) string { return s.title }
	results, err := runner.Map(ctx, pool, studies, name,
		func(_ context.Context, s study) ([]expt.AblationRow, error) { return s.compute() })
	prog.Finish()
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range studies {
		expt.RenderAblation(os.Stdout, s.title, results[i])
		for _, line := range s.prose {
			fmt.Println(line)
		}
		if i < len(studies)-1 {
			fmt.Println()
		}
	}

	if *metrics {
		rep, err := expt.CollectMetrics(p, "timed")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		expt.RenderMetrics(os.Stdout, rep)
	}
}
