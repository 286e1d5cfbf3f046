package expt

import (
	"fmt"
	"io"

	"repro/internal/tso"
)

// This file is reproduce's store-buffering section: the classic SB
// litmus test and the hidden-store lag experiment, sampled on the
// abstract TSO[S] machine. The litmus library proves SB's outcome set
// exhaustively (tsoexplore); this section shows how often an adversarial
// scheduler reaches each outcome, and how far the lag a thief must
// tolerate actually gets toward the observable bound.

// StoreBufferingResult is one machine's sampled tallies.
type StoreBufferingResult struct {
	// BufferSize is S, the store-buffer entries per thread.
	BufferSize int `json:"buffer_size"`
	// DrainStage reports whether the post-retirement drain stage is
	// modelled, which makes the observable bound S+1.
	DrainStage bool `json:"drain_stage"`
	// Bound is the machine's observable bound.
	Bound int `json:"bound"`
	// Runs is the number of schedules each tally samples.
	Runs int `json:"runs"`
	// Unfenced and Fenced count the SB outcomes (x:=1; r0:=y || y:=1;
	// r1:=x) without and with a fence after each store, indexed by
	// 2*r0 + r1.
	Unfenced [4]int `json:"unfenced"`
	Fenced   [4]int `json:"fenced"`
	// Lag[k] counts the schedules whose largest hidden-store lag was k;
	// the last entry, Bound+1, counts every lag beyond the bound.
	Lag []int `json:"lag"`
}

// StoreBuffering samples 3000 schedules of each tally on TSO[4], without
// and then with the drain stage.
func StoreBuffering() []StoreBufferingResult {
	var out []StoreBufferingResult
	for _, stage := range []bool{false, true} {
		cfg := tso.Config{Threads: 2, BufferSize: 4, DrainBuffer: stage, DrainBias: 0.1}
		out = append(out, sampleStoreBuffering(cfg, 3000))
	}
	return out
}

// sampleStoreBuffering runs both experiments on cfg.
func sampleStoreBuffering(cfg tso.Config, runs int) StoreBufferingResult {
	res := StoreBufferingResult{BufferSize: cfg.BufferSize, DrainStage: cfg.DrainBuffer,
		Bound: cfg.ObservableBound(), Runs: runs}
	res.Unfenced = sbOutcomes(cfg, runs, false)
	res.Fenced = sbOutcomes(cfg, runs, true)
	res.Lag = lagHistogram(cfg, runs)
	return res
}

// sbOutcomes samples the SB litmus test under seeded adversarial
// schedules and tallies the result pairs.
func sbOutcomes(cfg tso.Config, runs int, fenced bool) [4]int {
	var r0, r1 uint64
	thread := func(mine, other tso.Addr, r *uint64) func(tso.Context) {
		return func(c tso.Context) {
			c.Store(mine, 1)
			if fenced {
				c.Fence()
			}
			*r = c.Load(other)
		}
	}
	mk := func(m *tso.Machine) []func(tso.Context) {
		x, y := m.Alloc(1), m.Alloc(1)
		return []func(tso.Context){thread(x, y, &r0), thread(y, x, &r1)}
	}
	out := func(m *tso.Machine) string { return fmt.Sprintf("%d", 2*r0+r1) }
	set := tso.SampleOutcomes(cfg, runs, mk, out)
	var counts [4]int
	for k := range counts {
		counts[k] = set.Counts[fmt.Sprintf("%d", k)]
	}
	return counts
}

// lagHistogram measures how many of the worker's most recent stores a
// concurrent reader missed — the quantity the TSO[S] bound caps and the
// fence-free queues reason about. The lag is a property of one sampled
// schedule, so this experiment always samples.
func lagHistogram(cfg tso.Config, runs int) []int {
	bound := cfg.ObservableBound()
	var maxLag int
	cfg.DrainBias = 0.05
	mk := func(m *tso.Machine) []func(tso.Context) {
		loc := m.Alloc(8)
		issued := uint64(0)
		maxLag = 0
		return []func(tso.Context){
			func(c tso.Context) {
				for i := uint64(1); i <= 64; i++ {
					c.Store(loc+tso.Addr(i%8), i)
					issued = i
				}
			},
			func(c tso.Context) {
				for i := 0; i < 128; i++ {
					newest := uint64(0)
					before := issued
					for j := 0; j < 8; j++ {
						if v := c.Load(loc + tso.Addr(j)); v > newest {
							newest = v
						}
					}
					if before > newest && int(before-newest) > maxLag {
						maxLag = int(before - newest)
					}
				}
			},
		}
	}
	out := func(m *tso.Machine) string { return fmt.Sprintf("%d", min(maxLag, bound+1)) }
	set := tso.SampleOutcomes(cfg, runs, mk, out)
	hist := make([]int, bound+2)
	for lag := range hist {
		hist[lag] = set.Counts[fmt.Sprintf("%d", lag)]
	}
	return hist
}

// RenderStoreBuffering writes each machine's SB tables and lag table.
func RenderStoreBuffering(w io.Writer, results []StoreBufferingResult) {
	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "Abstract TSO[%d] machine (drain stage: %v, observable bound %d)\n\n",
			res.BufferSize, res.DrainStage, res.Bound)
		renderSB(w, "without fences", res.Runs, res.Unfenced, "the TSO reordering outcome")
		renderSB(w, "with fences", res.Runs, res.Fenced, "impossible with fences")

		fmt.Fprintf(w, "Max hidden-store lag per schedule (distinct addresses, %d schedules):\n", res.Runs)
		rows := [][]string{}
		for lag, n := range res.Lag {
			if n == 0 {
				continue
			}
			note := ""
			if lag == res.Bound {
				note = "= observable bound"
			}
			if lag > res.Bound {
				note = "BOUND VIOLATION"
			}
			rows = append(rows, []string{fmt.Sprintf("%d", lag), fmt.Sprintf("%d", n), note})
		}
		WriteTable(w, []string{"max lag", "schedules", ""}, rows)
		if n := res.Lag[res.Bound+1]; n > 0 {
			fmt.Fprintf(w, "\n%d schedules exceed the bound of %d: the machine breaks the TSO[S] guarantee.\n", n, res.Bound)
			continue
		}
		fmt.Fprintf(w, "\nNo schedule exceeds the bound of %d: a thief that assumes at most %d\n", res.Bound, res.Bound)
		fmt.Fprintln(w, "hidden stores is safe, which is exactly the FF-THE/FF-CL argument.")
	}
}

// renderSB writes the four SB outcome rows in their canonical order,
// noting the outcome that r0=0 r1=0 demonstrates.
func renderSB(w io.Writer, title string, runs int, counts [4]int, note00 string) {
	fmt.Fprintf(w, "Store-buffering litmus, %s (%d schedules):\n", title, runs)
	rows := make([][]string, len(counts))
	for k, n := range counts {
		note := ""
		if k == 0 {
			note = note00
		}
		rows[k] = []string{fmt.Sprintf("r0=%d r1=%d", k/2, k%2), fmt.Sprintf("%d", n), note}
	}
	WriteTable(w, []string{"outcome", "count", ""}, rows)
	fmt.Fprintln(w)
}
