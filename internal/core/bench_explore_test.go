package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/tso"
)

// iriwProgs is the four-thread IRIW litmus: two writers publish x and y,
// two readers load the pair in opposite orders, each publishing its two
// observations (offset by one so "read 0" and "never ran" differ).
func iriwProgs() (func(m *tso.Machine) []func(tso.Context), func(m *tso.Machine) string) {
	const xA, yA = tso.Addr(0), tso.Addr(1)
	mk := func(m *tso.Machine) []func(tso.Context) {
		m.Alloc(6)
		reader := func(first, second tso.Addr, res tso.Addr) func(tso.Context) {
			return func(c tso.Context) {
				a := c.Load(first)
				b := c.Load(second)
				c.Store(res, a+1)
				c.Store(res+1, b+1)
				c.Fence()
			}
		}
		return []func(tso.Context){
			func(c tso.Context) { c.Store(xA, 1) },
			func(c tso.Context) { c.Store(yA, 1) },
			reader(xA, yA, 2),
			reader(yA, xA, 4),
		}
	}
	out := func(m *tso.Machine) string {
		return fmt.Sprintf("r1=%d%d r2=%d%d", m.Peek(2)-1, m.Peek(3)-1, m.Peek(4)-1, m.Peek(5)-1)
	}
	return mk, out
}

// TestBenchExplore measures the exploration core's two canonical
// workloads — the four-thread IRIW litmus and the FF-CL S=2 δ-soundness
// duel, each explored under Prune and under DPOR — plus the frontier
// checkpoint's wire cost per unit. It only runs when
// BENCH_EXPLORE_OUT names an output file, where it writes a one-object
// JSON summary (CI uploads it as the BENCH_explore.json artifact). The
// checked-in copy under results/ doubles as a regression gate: any
// executed-run count more than 25% above its reference value fails the
// bench. The Parallel: 4 Prune counts depend on which worker reaches a
// shared state first, so they vary from run to run; the sequential Prune
// counts (the _seq columns) and the DPOR counts repeat exactly.
func TestBenchExplore(t *testing.T) {
	out := os.Getenv("BENCH_EXPLORE_OUT")
	if out == "" {
		t.Skip("set BENCH_EXPLORE_OUT=path to run the exploration bench")
	}

	iriwCfg := tso.Config{Threads: 4, BufferSize: 1}
	iriwMk, iriwOut := iriwProgs()
	start := time.Now()
	iriwSet, iriwRes := tso.ExploreExhaustive(iriwCfg, iriwMk, iriwOut, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: 1 << 22},
		Parallel:       4,
		Prune:          true,
	})
	iriwSecs := time.Since(start).Seconds()
	if !iriwRes.Complete {
		t.Fatalf("IRIW exploration incomplete after %d executed runs", iriwRes.Runs)
	}

	ffclMk, ffclOut, ffclCfg := ffclDuel(3, 2, 2, 2 /*S*/, 2 /*δ=S*/)
	start = time.Now()
	ffclSet, ffclRes := tso.ExploreExhaustive(ffclCfg, ffclMk, ffclOut, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: 1 << 22},
		Parallel:       4,
		Prune:          true,
	})
	ffclSecs := time.Since(start).Seconds()
	if !ffclRes.Complete {
		t.Fatalf("FF-CL duel exploration incomplete after %d executed runs", ffclRes.Runs)
	}

	// The same two Prune explorations on one worker, whose counts repeat.
	_, iriwSeqRes := tso.ExploreExhaustive(iriwCfg, iriwMk, iriwOut, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: 1 << 22},
		Prune:          true,
	})
	_, ffclSeqRes := tso.ExploreExhaustive(ffclCfg, ffclMk, ffclOut, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: 1 << 22},
		Prune:          true,
	})
	if !iriwSeqRes.Complete || !ffclSeqRes.Complete {
		t.Fatalf("sequential Prune explorations incomplete: IRIW %d runs, FF-CL %d runs", iriwSeqRes.Runs, ffclSeqRes.Runs)
	}

	// The same two workloads under source-set DPOR. The executed-run
	// counts are the headline: one schedule per Mazurkiewicz class, so
	// any growth here means the dependence layer got coarser.
	start = time.Now()
	iriwDSet, iriwDRes := tso.ExploreExhaustive(iriwCfg, iriwMk, iriwOut, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: 1 << 22},
		Parallel:       4,
		DPOR:           true,
	})
	iriwDSecs := time.Since(start).Seconds()
	if !iriwDRes.Complete {
		t.Fatalf("IRIW DPOR exploration incomplete after %d executed runs", iriwDRes.Runs)
	}
	start = time.Now()
	ffclDSet, ffclDRes := tso.ExploreExhaustive(ffclCfg, ffclMk, ffclOut, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: 1 << 22},
		Parallel:       4,
		DPOR:           true,
	})
	ffclDSecs := time.Since(start).Seconds()
	if !ffclDRes.Complete {
		t.Fatalf("FF-CL duel DPOR exploration incomplete after %d executed runs", ffclDRes.Runs)
	}
	for _, w := range []struct {
		name       string
		pruned, dp tso.OutcomeSet
	}{{"iriw", iriwSet, iriwDSet}, {"ffcl_s2", ffclSet, ffclDSet}} {
		for o := range w.pruned.Counts {
			if !w.dp.Has(o) {
				t.Errorf("%s: outcome %q lost under DPOR", w.name, o)
			}
		}
		for o := range w.dp.Counts {
			if !w.pruned.Has(o) {
				t.Errorf("%s: outcome %q invented under DPOR", w.name, o)
			}
		}
	}

	// Wire cost per frontier unit on a realistic sharded IRIW frontier.
	const units = 64
	cp, err := tso.ShardFrontier(iriwCfg, iriwMk, tso.ExhaustiveOptions{Units: units})
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := (tso.BinaryCodec{}).EncodeCheckpoint(&bin, cp); err != nil {
		t.Fatal(err)
	}

	summary := map[string]any{
		"iriw_schedules":          iriwSet.Total(),
		"iriw_executed":           iriwRes.Runs,
		"iriw_seq_executed":       iriwSeqRes.Runs,
		"iriw_seconds":            iriwSecs,
		"iriw_dpor_executed":      iriwDRes.Runs,
		"iriw_dpor_seconds":       iriwDSecs,
		"ffcl_s2_schedules":       ffclSet.Total(),
		"ffcl_s2_executed":        ffclRes.Runs,
		"ffcl_s2_seq_executed":    ffclSeqRes.Runs,
		"ffcl_s2_seconds":         ffclSecs,
		"ffcl_s2_dpor_executed":   ffclDRes.Runs,
		"ffcl_s2_dpor_seconds":    ffclDSecs,
		"checkpoint_units":        len(cp.Units),
		"checkpoint_bytes_binary": bin.Len(),
		"bytes_per_unit_binary":   float64(bin.Len()) / float64(len(cp.Units)),
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("IRIW %d schedules in %.2fs (DPOR executed %d vs pruned %d); FF-CL S=2 %d schedules in %.2fs (DPOR executed %d vs pruned %d); checkpoint %dB over %d units",
		iriwSet.Total(), iriwSecs, iriwDRes.Runs, iriwRes.Runs,
		ffclSet.Total(), ffclSecs, ffclDRes.Runs, ffclRes.Runs, bin.Len(), len(cp.Units))

	// Regression gate against the checked-in reference. Executed-run
	// counts measure the engine's reduction machinery (timings are not
	// gated — CI runners jitter), so a count >25% above its reference
	// value means a reduction regressed.
	ref, err := os.ReadFile("../../results/BENCH_explore.json")
	if err != nil {
		t.Fatalf("no checked-in reference to gate against: %v", err)
	}
	var refCols map[string]float64
	if err := json.Unmarshal(ref, &refCols); err != nil {
		t.Fatalf("results/BENCH_explore.json: %v", err)
	}
	for col, got := range map[string]int{
		"iriw_executed":         iriwRes.Runs,
		"iriw_dpor_executed":    iriwDRes.Runs,
		"iriw_seq_executed":     iriwSeqRes.Runs,
		"ffcl_s2_executed":      ffclRes.Runs,
		"ffcl_s2_seq_executed":  ffclSeqRes.Runs,
		"ffcl_s2_dpor_executed": ffclDRes.Runs,
	} {
		want, ok := refCols[col]
		if !ok {
			t.Errorf("reference BENCH_explore.json lacks %q; regenerate it", col)
			continue
		}
		if float64(got) > want*1.25 {
			t.Errorf("%s regressed >25%%: executed %d runs, reference %d", col, got, int64(want))
		}
	}
}
