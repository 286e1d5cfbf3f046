package sched

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/tso"
)

// referenceMachine is an 8-thread timed machine shaped like the
// reference platform of Figures 10 and 11 and the serving cells.
func referenceMachine() *tso.TimedMachine {
	return tso.NewTimedMachine(tso.Config{Threads: 8, BufferSize: 11, DrainBuffer: true})
}

// TestNewPoolAllocs bounds the host memory one NewPool allocates on an
// 8-thread timed machine at the default QueueCap. The eight task arrays
// reserve 131k words of simulated memory, but construction writes only a
// few queue headers, so the pool must cost what it writes (per-worker
// RNGs, queues, headers), not the reserved arrays.
func TestNewPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const maxBytes = 128 << 10
	for _, algo := range core.AllAlgos {
		const n = 4
		ms := make([]*tso.TimedMachine, n)
		for i := range ms {
			ms[i] = referenceMachine()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, m := range ms {
			NewPool(m, Options{Algo: algo, Delta: 4, Seed: 1})
		}
		runtime.ReadMemStats(&after)
		for _, m := range ms {
			m.Close()
		}
		perPool := (after.TotalAlloc - before.TotalAlloc) / n
		t.Logf("%v: %d bytes, %d allocations per NewPool", algo, perPool, (after.Mallocs-before.Mallocs)/n)
		if perPool >= maxBytes {
			t.Errorf("%v: NewPool allocated %d bytes, want < %d", algo, perPool, maxBytes)
		}
	}
}

// BenchmarkNewPool measures pool construction alone on a fresh 8-thread
// timed machine: the set-up cost every Figure 10/11 run and serving cell
// pays before its first task.
func BenchmarkNewPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := referenceMachine()
		b.StartTimer()
		NewPool(m, Options{Algo: core.AlgoTHE, Seed: 1})
		b.StopTimer()
		m.Close()
		b.StartTimer()
	}
}
