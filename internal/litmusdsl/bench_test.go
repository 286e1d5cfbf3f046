package litmusdsl

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkExplore measures exhaustive exploration of the litmus library
// under the engine's scalability knobs: the sequential reference engine,
// the parallel frontier, canonical-state pruning, and both combined.
// Run it with:
//
//	go test ./internal/litmusdsl/ -run - -bench BenchmarkExplore -benchtime 2x
//
// The interesting metric is schedules-accounted per schedule-executed
// (reported as sched/run): pruning proves the same tree with a fraction of
// the machine runs, and the parallel frontier spreads the remainder over
// cores.
func BenchmarkExplore(b *testing.B) {
	variants := []struct {
		name string
		opts RunOptions
	}{
		{"seq", RunOptions{}},
		{"par", RunOptions{Parallel: runtime.NumCPU()}},
		{"prune", RunOptions{Prune: true}},
		{"par+prune", RunOptions{Parallel: runtime.NumCPU(), Prune: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var schedules, executed int64
			for i := 0; i < b.N; i++ {
				schedules, executed = 0, 0
				for _, src := range Library {
					t, err := Parse(src)
					if err != nil {
						b.Fatal(err)
					}
					res, err := Run(t, v.opts)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Complete {
						b.Fatalf("%s: incomplete", t.Name)
					}
					schedules += int64(res.Schedules)
					executed += int64(res.Executed)
				}
			}
			b.ReportMetric(float64(schedules), "sched")
			b.ReportMetric(float64(executed), "runs")
			b.ReportMetric(float64(schedules)/float64(executed), "sched/run")
		})
	}
}

// BenchmarkExploreIRIW isolates the engine's headline case: the 4-thread
// IRIW tree (~9.6M schedules), intractable for the sequential engine's
// default budget, fully proved by the pruned engine in a few thousand runs.
func BenchmarkExploreIRIW(b *testing.B) {
	src := `name: IRIW
model: TSO
sbuf: 1
P0: x=1
P1: y=1
P2: r0=x; r1=y
P3: r2=y; r3=x
exists: P2.r0=1 & P2.r1=0 & P3.r2=1 & P3.r3=0
expect: forbidden`
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("prune/par=%d", par), func(b *testing.B) {
			t, err := Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := Run(t, RunOptions{MaxSchedules: 1 << 20, Prune: true, Parallel: par})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Complete {
					b.Fatal("incomplete")
				}
			}
		})
	}
}
