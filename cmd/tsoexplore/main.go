// Command tsoexplore demonstrates the abstract TSO[S] machine directly:
// it runs the classic store-buffering litmus test under many adversarial
// schedules and tallies the observed outcomes, with and without fences,
// and shows the bounded-reordering lag experiment that underpins the
// fence-free queues. With -exhaustive the store-buffering tallies come
// from the model-checking engine instead of sampling: every schedule is
// accounted for exactly, optionally in parallel (-par) and with
// canonical-state pruning (-prune).
//
// With -fuzz N the tool instead differential-fuzzes the deque
// implementations: it generates N random small put/take/steal programs
// (random buffer size, drain stage, prefill and thief mix), runs every
// implemented algorithm on each under the semantic oracle's spec for that
// algorithm (exactly-once for the precise queues, at-least-once for the
// idempotent ones), and exits nonzero if any sampled schedule violates.
//
// An exhaustive run with -checkpoint PREFIX is interruptible: on SIGTERM
// or SIGINT the engine stops at the next run boundary and the unexplored
// frontier is written atomically (temp file + rename) to
// PREFIX-<phase>.ckpt in the binary frontier wire format the tsoserve
// spool uses; rerunning the same command resumes it (and deletes the
// file once the phase completes). A checkpoint in any other wire format
// or version is refused, and so is one whose embedded phase label does
// not match the phase resolving to its path (a prefix collision), rather
// than being silently folded into the wrong experiment.
//
// Usage:
//
//	tsoexplore [-s 4] [-runs 2000] [-stage] [-exhaustive] [-par N] [-prune] [-dpor] [-reorder K] [-checkpoint PREFIX] [-cpuprofile f] [-memprofile f]
//	tsoexplore -fuzz N [-seed S] [-runs per-program schedules]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/oracle"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/tso"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsoexplore: ")
	s := flag.Int("s", 4, "store buffer entries per thread")
	runs := flag.Int("runs", 2000, "schedules to sample per experiment (ignored with -exhaustive)")
	stage := flag.Bool("stage", false, "model the post-retirement drain stage B (bound becomes S+1)")
	exhaustive := flag.Bool("exhaustive", false, "explore every schedule of the SB test instead of sampling")
	par := flag.Int("par", 1, "exploration workers for -exhaustive")
	prune := flag.Bool("prune", false, "canonical-state pruning for -exhaustive")
	reorder := flag.Int("reorder", 0, "with -exhaustive, bound the store→load reorderings per schedule (<=0: unbounded)")
	dpor := flag.Bool("dpor", false, "with -exhaustive, source-set DPOR (same outcome set, one executed schedule per equivalence class; excludes -reorder)")
	checkpoint := flag.String("checkpoint", "", "frontier checkpoint path prefix for interruptible -exhaustive runs")
	fuzz := flag.Int("fuzz", 0, "differential-fuzz N random deque programs across every algorithm (0: off)")
	seed := flag.Int64("seed", 1, "base RNG seed for -fuzz program generation")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap (allocs) profile to this file on exit")
	flag.Parse()

	// The engine's own refusal (tso.ErrDPORReorder), as tsoserve reports it.
	if err := (tso.ExhaustiveOptions{DPOR: *dpor, MaxReorderings: *reorder}).Validate(tso.Config{}); err != nil {
		log.Fatalf("-dpor with -reorder: %v", err)
	}

	stopProfiles, err := runner.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
	}()

	if *fuzz > 0 {
		if !oracleFuzz(*fuzz, *seed, *runs) {
			if err := stopProfiles(); err != nil {
				log.Print(err)
			}
			os.Exit(1)
		}
		return
	}

	cfg := tso.Config{Threads: 2, BufferSize: *s, DrainBuffer: *stage, DrainBias: 0.1}
	fmt.Printf("Abstract TSO[%d] machine (drain stage: %v, observable bound %d)\n\n",
		*s, *stage, cfg.ObservableBound())

	if *exhaustive {
		// SIGTERM/SIGINT stop the engine at a run boundary; with
		// -checkpoint the frontier is spooled and the process exits
		// cleanly instead of losing the exploration.
		ctx, cancel := serve.SignalDrain(context.Background())
		defer cancel()
		for _, fenced := range []bool{false, true} {
			done, err := sbExhaustive(ctx, cfg, fenced, *par, *prune, *dpor, *reorder, *checkpoint)
			if err != nil {
				log.Fatal(err)
			}
			if !done {
				fmt.Println("interrupted: rerun the same command to resume from the checkpoint")
				return
			}
		}
	} else {
		sbOutcomes(cfg, *runs, false)
		sbOutcomes(cfg, *runs, true)
	}
	lagHistogram(cfg, *runs)
}

// oracleFuzz is the -fuzz mode: nprogs random programs, every algorithm,
// sampled schedules under the semantic oracle. Returns false if any
// violation was found.
func oracleFuzz(nprogs int, seed int64, samples int) bool {
	if samples <= 0 {
		samples = 50
	}
	r := rand.New(rand.NewSource(seed))
	fmt.Printf("Differential deque fuzzing: %d random programs x %d algorithms x %d sampled schedules (seed %d)\n\n",
		nprogs, len(core.AllAlgos), samples, seed)
	rows := [][]string{}
	violations := 0
	for i := 0; i < nprogs; i++ {
		p := oracle.RandomProgram(r)
		worst := "ok"
		for _, algo := range core.AllAlgos {
			q := p
			q.Algo = algo
			q.Delta = q.Config().ObservableBound()
			rep := oracle.Run(q.Scenario(), oracle.RunOptions{
				Spec:           q.Spec(),
				SampleRuns:     samples,
				MaxStepsPerRun: 100_000,
				Counterexample: true,
			})
			if rep.Violating == 0 {
				continue
			}
			violations++
			worst = fmt.Sprintf("%s under %s spec: %d/%d schedules violate", algo, rep.Spec, rep.Violating, samples)
			fmt.Printf("VIOLATION: %s\n  %s\n", q, worst)
			if ce := rep.Counterexample; ce != nil {
				fmt.Printf("  counterexample: seed %d, verdict %q\n", ce.Seed, ce.Outcome)
				for _, line := range ce.Trace {
					fmt.Println("    " + line)
				}
			}
		}
		rows = append(rows, []string{fmt.Sprintf("%d", i), p.String(), worst})
	}
	expt.WriteTable(os.Stdout, []string{"#", "program", "result"}, rows)
	if violations > 0 {
		fmt.Printf("\n%d violating (program, algorithm) pairs — see counterexamples above.\n", violations)
		return false
	}
	fmt.Printf("\nAll programs satisfied their specs on every sampled schedule.\n")
	return true
}

// sbTable renders the four SB outcome rows in their canonical order.
func sbTable(counts map[string]int, fenced bool) {
	rows := [][]string{}
	for _, k := range [][2]uint64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		note := ""
		if k == [2]uint64{0, 0} {
			if fenced {
				note = "impossible with fences"
			} else {
				note = "the TSO reordering outcome"
			}
		}
		key := fmt.Sprintf("r0=%d r1=%d", k[0], k[1])
		rows = append(rows, []string{key, fmt.Sprintf("%d", counts[key]), note})
	}
	expt.WriteTable(os.Stdout, []string{"outcome", "count", ""}, rows)
	fmt.Println()
}

// sbOutcomes samples the SB litmus test (x:=1; r0:=y || y:=1; r1:=x)
// under seeded adversarial schedules via the shared engine and tallies
// result pairs.
func sbOutcomes(cfg tso.Config, runs int, fenced bool) {
	var r0, r1 uint64
	mk := func(m *tso.Machine) []func(tso.Context) {
		x, y := m.Alloc(1), m.Alloc(1)
		return []func(tso.Context){
			func(c tso.Context) {
				c.Store(x, 1)
				if fenced {
					c.Fence()
				}
				r0 = c.Load(y)
			},
			func(c tso.Context) {
				c.Store(y, 1)
				if fenced {
					c.Fence()
				}
				r1 = c.Load(x)
			},
		}
	}
	out := func(m *tso.Machine) string { return fmt.Sprintf("r0=%d r1=%d", r0, r1) }
	set := tso.SampleOutcomes(cfg, runs, mk, out)
	title := "without fences"
	if fenced {
		title = "with fences"
	}
	fmt.Printf("Store-buffering litmus, %s (%d schedules):\n", title, runs)
	sbTable(set.Counts, fenced)
}

// spoolPath maps a checkpoint prefix and phase name to the phase's spool
// file.
func spoolPath(prefix, phase string) string {
	return prefix + "-" + phase + ".ckpt"
}

// loadCheckpoint resolves a phase's spooled frontier, if any, and rejects
// checkpoints that are incompatible with the machine or options —
// including a phase label that disagrees with the phase this path
// resolved to, which is what a prefix collision between two phases looks
// like on disk. A nil checkpoint with a nil error means there is nothing
// to resume.
func loadCheckpoint(prefix, phase string, cfg tso.Config, opts tso.ExhaustiveOptions) (*tso.Checkpoint, error) {
	path := spoolPath(prefix, phase)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	defer f.Close()
	cp, err := (tso.BinaryCodec{}).DecodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := cp.CompatibleWithOptions(cfg, opts); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w (prefix collision between phases?)", path, err)
	}
	return cp, nil
}

// writeCheckpoint spools cp for the phase atomically: the frontier is
// encoded to a temp file in the destination directory and renamed over
// the final path, so an interrupted write can never leave a truncated
// checkpoint where the next run would trust it (os.Rename replaces the
// destination on every supported platform).
func writeCheckpoint(prefix, phase string, cp *tso.Checkpoint) error {
	ckpt := spoolPath(prefix, phase)
	tmp, err := os.CreateTemp(filepath.Dir(ckpt), filepath.Base(ckpt)+".tmp-*")
	if err != nil {
		return err
	}
	if err := (tso.BinaryCodec{}).EncodeCheckpoint(tmp, cp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint %s: %w", ckpt, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint %s: %w", ckpt, err)
	}
	if err := os.Rename(tmp.Name(), ckpt); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// clearCheckpoint removes a completed phase's spool file.
func clearCheckpoint(prefix, phase string) error {
	if err := os.Remove(spoolPath(prefix, phase)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// sbProgs builds the exhaustive-mode SB programs: registers publish to
// result words (offset by one so "stored 0" and "never stored" differ)
// rather than captured locals, keeping the factory safe on the engine's
// concurrent workers. Shared with the checkpoint-spool regression tests.
func sbProgs(fenced bool) (func(m *tso.Machine) []func(tso.Context), func(m *tso.Machine) string) {
	const xA, yA, r0A, r1A = tso.Addr(0), tso.Addr(1), tso.Addr(2), tso.Addr(3)
	mk := func(m *tso.Machine) []func(tso.Context) {
		m.Alloc(4)
		return []func(tso.Context){
			func(c tso.Context) {
				c.Store(xA, 1)
				if fenced {
					c.Fence()
				}
				c.Store(r0A, c.Load(yA)+1)
			},
			func(c tso.Context) {
				c.Store(yA, 1)
				if fenced {
					c.Fence()
				}
				c.Store(r1A, c.Load(xA)+1)
			},
		}
	}
	out := func(m *tso.Machine) string {
		return fmt.Sprintf("r0=%d r1=%d", m.Peek(r0A)-1, m.Peek(r1A)-1)
	}
	return mk, out
}

// sbExhaustive proves the SB tallies instead of sampling them: the counts
// are over every schedule of the machine (or, with reorder >= 1, every
// schedule with at most that many store→load reorderings). The programs
// publish their registers to result words (rather than captured locals)
// so the factory is safe on the engine's concurrent workers. With a
// checkpoint prefix the phase resumes from its spool file when present
// and spools the remaining frontier there when ctx is cancelled
// mid-exploration; the first return value reports whether the phase ran
// to completion.
func sbExhaustive(ctx context.Context, cfg tso.Config, fenced bool, par int, prune, dpor bool, reorder int, ckptPrefix string) (bool, error) {
	mk, out := sbProgs(fenced)
	title := "without fences"
	phase := "sb"
	if fenced {
		title = "with fences"
		phase = "sb-fenced"
	}

	opts := tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: 1 << 22},
		Parallel:       par,
		Prune:          prune,
		DPOR:           dpor,
		MaxReorderings: reorder,
		Label:          phase,
		Interrupt:      ctx.Done(),
	}
	if ckptPrefix != "" {
		cp, err := loadCheckpoint(ckptPrefix, phase, cfg, opts)
		if err != nil {
			return false, err
		}
		if cp != nil {
			opts.Resume = cp
			fmt.Printf("resuming %s (%d runs done, %d frontier units)\n",
				phase, cp.Runs, len(cp.Units))
		}
	}

	set, res := tso.ExploreExhaustive(cfg, mk, out, opts)
	if !res.Complete && res.Checkpoint != nil && ctx.Err() != nil {
		if ckptPrefix == "" {
			return false, fmt.Errorf("interrupted %s with no -checkpoint prefix; exploration lost", phase)
		}
		if err := writeCheckpoint(ckptPrefix, phase, res.Checkpoint); err != nil {
			return false, err
		}
		fmt.Printf("interrupted %s after %d runs; frontier (%d units) spooled to %s\n",
			phase, res.Checkpoint.Runs, len(res.Checkpoint.Units), spoolPath(ckptPrefix, phase))
		return false, nil
	}
	if ckptPrefix != "" {
		if err := clearCheckpoint(ckptPrefix, phase); err != nil {
			log.Print(err)
		}
	}
	space := "every schedule"
	if reorder >= 1 {
		space = fmt.Sprintf("every schedule with <=%d reorderings", reorder)
	}
	fmt.Printf("Store-buffering litmus, %s (%s: %d, executed %d, complete=%v):\n",
		title, space, set.Total(), res.Runs, res.Complete)
	if prune {
		fmt.Printf("pruning: %d states deduped, %d schedules saved\n",
			res.Prune.StatesDeduped, res.Prune.SchedulesSaved)
	}
	if dpor {
		fmt.Printf("dpor: %d races detected, %d backtracks, %d sleep skips (counts below are per-class representatives)\n",
			res.Prune.DPORRaces, res.Prune.DPORBacktracks, res.Prune.DPORSleepSkips)
	}
	if reorder >= 1 {
		fmt.Printf("reorder bound %d: %d subtrees cut (%d schedules skipped)\n",
			reorder, res.Prune.SubtreesCut, res.Prune.ReorderSkips)
	}
	sbTable(set.Counts, fenced)
	return true, nil
}

// lagHistogram measures how many of the worker's most recent stores a
// concurrent reader missed — the quantity the TSO[S] bound caps and the
// fence-free queues reason about. The lag is a property of one sampled
// schedule, so this experiment always samples via the shared engine.
func lagHistogram(cfg tso.Config, runs int) {
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
	out := func(m *tso.Machine) string {
		lag := maxLag
		if lag > bound+1 {
			lag = bound + 1
		}
		return fmt.Sprintf("%d", lag)
	}
	set := tso.SampleOutcomes(cfg, runs, mk, out)
	fmt.Printf("Max hidden-store lag per schedule (distinct addresses, %d schedules):\n", runs)
	rows := [][]string{}
	for lag := 0; lag <= bound+1; lag++ {
		n := set.Counts[fmt.Sprintf("%d", lag)]
		if n == 0 {
			continue
		}
		note := ""
		if lag == bound {
			note = "= observable bound"
		}
		if lag > bound {
			note = "BOUND VIOLATION"
		}
		rows = append(rows, []string{fmt.Sprintf("%d", lag), fmt.Sprintf("%d", n), note})
	}
	expt.WriteTable(os.Stdout, []string{"max lag", "schedules", ""}, rows)
	fmt.Printf("\nNo schedule exceeds the bound of %d: a thief that assumes at most %d\n", bound, bound)
	fmt.Println("hidden stores is safe, which is exactly the FF-THE/FF-CL argument.")
}
