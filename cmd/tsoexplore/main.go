// Command tsoexplore is the explorer of the abstract TSO[S]/PSO machine.
// It runs memory-model litmus tests by exhaustive schedule exploration:
// with no arguments the built-in library of classic tests (SB, MP, LB,
// CoRR, 2+2W, S, R, WRC, fence/CAS variants), each checked against its
// literature verdict; given file paths, those tests instead (see
// internal/litmusdsl for the file format). A test whose verdict differs
// from its expectation prints FAIL and makes the exit status 1.
//
// -par spreads each exploration over N workers; -prune turns on
// canonical-state memoization, which proves the same outcome counts while
// executing a fraction of the schedules (the executed= column). -dpor
// switches to source-set dynamic partial-order reduction: the outcome
// set and verdict are identical while only one schedule per equivalence
// class executes (PSO tests in the run fall back to unreduced
// exploration). -reorder K bounds exploration to schedules with at most
// K store->load reorderings — verdicts are then proofs over the
// K-bounded space only.
//
// With -checkpoint PREFIX a run is interruptible: on SIGTERM or SIGINT
// the engine stops at the next run boundary and the current test's
// unexplored frontier is written atomically (temp file + rename) to
// PREFIX-<test name>.ckpt in the binary frontier wire format the
// tsoserve spool uses; rerunning the same command resumes it (and
// deletes the file once the test completes). A checkpoint in any other
// wire format or version is refused, and so is one labelled with another
// test's name, rather than being silently folded into the wrong test.
// Test names must then be plain file names, and distinct.
//
// With -fuzz N the command instead differential-fuzzes the deque
// implementations: it generates N random small put/take/steal programs
// (random buffer size, drain stage, prefill and thief mix), runs every
// implemented algorithm on each under the semantic oracle's spec for that
// algorithm (exactly-once for the precise queues, at-least-once for the
// idempotent ones), and exits 1 if any sampled schedule violates.
//
// Usage:
//
//	tsoexplore [-list] [-max 2000000] [-v] [-witness] [-par N] [-prune] [-dpor] [-reorder K] [-checkpoint PREFIX] [-cpuprofile f] [-memprofile f] [file.litmus ...]
//	tsoexplore -fuzz N [-seed S] [-runs R] [-cpuprofile f] [-memprofile f]
//
// Bad usage, including a flag the chosen mode would ignore, exits 2.
// The sampled store-buffering tallies and hidden-store lag table are
// reproduce's store-buffering section.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/litmusdsl"
	"repro/internal/oracle"
	"repro/internal/runner"
	"repro/internal/tso"
)

func main() {
	ctx, stop := runner.SignalContext(context.Background())
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// litmusOnly names the flags only the litmus mode reads.
var litmusOnly = map[string]bool{"list": true, "max": true, "v": true, "witness": true, "par": true,
	"prune": true, "dpor": true, "reorder": true, "checkpoint": true}

// run is the command: it parses args, runs the chosen mode and returns
// the exit status (0 ok, 1 a failed verdict, fuzz violation or error, 2
// bad usage). Cancelling ctx interrupts the current exploration.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "tsoexplore: ", 0)
	fs := flag.NewFlagSet("tsoexplore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the built-in library and exit")
	maxSched := fs.Int("max", 2_000_000, "schedule-exploration cap per test")
	verbose := fs.Bool("v", false, "print every distinct outcome per test")
	witness := fs.Bool("witness", false, "for allowed tests, print one schedule reaching the condition")
	par := fs.Int("par", 1, "exploration workers per test")
	prune := fs.Bool("prune", false, "canonical-state pruning (same counts, fewer executed schedules)")
	dpor := fs.Bool("dpor", false, "source-set DPOR (same outcome set and verdict, one executed schedule per equivalence class; PSO tests run unreduced)")
	reorder := fs.Int("reorder", 0, "bound schedules to at most K store->load reorderings (0: unbounded); verdicts are proofs over the bounded space only")
	checkpoint := fs.String("checkpoint", "", "spool each interrupted test's frontier to PREFIX-<test name>.ckpt and resume from it")
	fuzz := fs.Int("fuzz", 0, "differential-fuzz N random deque programs across every algorithm (0: off)")
	seed := fs.Int64("seed", 1, "base RNG seed for -fuzz program generation")
	runs := fs.Int("runs", 2000, "sampled schedules per program and algorithm for -fuzz")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap (allocs) profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := checkMode(fs, *fuzz > 0, *list); err != nil {
		logger.Print(err)
		return 2
	}
	// The engine's own refusal (tso.ErrDPORReorder), as tsoserve reports it.
	if err := (tso.ExhaustiveOptions{DPOR: *dpor, MaxReorderings: *reorder}).Validate(tso.Config{}); err != nil {
		logger.Printf("-dpor with -reorder: %v", err)
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

	if *fuzz > 0 {
		if !oracleFuzz(stdout, *fuzz, *seed, *runs) {
			return 1
		}
		return 0
	}
	if *list {
		for _, src := range litmusdsl.Library {
			fmt.Fprintln(stdout, src)
			fmt.Fprintln(stdout)
		}
		return 0
	}

	tests, err := loadTests(fs.Args())
	if err != nil {
		logger.Print(err)
		return 1
	}
	if *checkpoint != "" {
		if err := checkSpoolNames(tests); err != nil {
			logger.Print(err)
			return 2
		}
	}

	failures := 0
	var pruneTotal tso.PruneStats
	for _, t := range tests {
		start := time.Now()
		opts := litmusdsl.RunOptions{
			MaxSchedules: *maxSched, Witness: *witness, Parallel: *par, Prune: *prune,
			DPOR: *dpor && t.Model != tso.ModelPSO, MaxReorderings: *reorder,
			Interrupt: ctx.Done(),
		}
		if *checkpoint != "" {
			cp, err := loadCheckpoint(*checkpoint, t.Name)
			if err != nil {
				logger.Print(err)
				return 1
			}
			if cp != nil {
				opts.Resume = cp
				fmt.Fprintf(stdout, "resuming %s (%d runs done, %d frontier units)\n", t.Name, cp.Runs, len(cp.Units))
			}
		}
		res, err := litmusdsl.Run(t, opts)
		if err != nil {
			if opts.Resume != nil {
				logger.Printf("checkpoint %s: %v", spoolPath(*checkpoint, t.Name), err)
			} else {
				logger.Printf("%s: %v", t.Name, err)
			}
			return 1
		}
		if res.Checkpoint != nil && ctx.Err() != nil {
			if *checkpoint == "" {
				logger.Printf("interrupted %s with no -checkpoint prefix; exploration lost", t.Name)
				return 1
			}
			if err := writeCheckpoint(*checkpoint, t.Name, res.Checkpoint); err != nil {
				logger.Print(err)
				return 1
			}
			fmt.Fprintf(stdout, "interrupted %s after %d runs; frontier (%d units) spooled to %s\n",
				t.Name, res.Checkpoint.Runs, len(res.Checkpoint.Units), spoolPath(*checkpoint, t.Name))
			fmt.Fprintln(stdout, "interrupted: rerun the same command to resume from the checkpoint")
			return min(failures, 1)
		}
		if *checkpoint != "" {
			if err := clearCheckpoint(*checkpoint, t.Name); err != nil {
				logger.Print(err)
			}
		}
		status := "ok  "
		if !res.Ok() {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(stdout, "%s %-14s model=%-3s verdict=%-10s expect=%-9s schedules=%-9d executed=%-7d complete=%-5v occ=%v tree=d%d/f%d/c%d %v\n",
			status, t.Name, t.Model, res.Verdict, t.Expect, res.Schedules, res.Executed, res.Complete,
			res.MaxOccupancy, res.Tree.MaxDepth, res.Tree.MaxFanout, res.Tree.ChoicePoints,
			time.Since(start).Round(time.Millisecond))
		pruneTotal.StatesSeen += res.Prune.StatesSeen
		pruneTotal.StatesDeduped += res.Prune.StatesDeduped
		pruneTotal.SubtreesCut += res.Prune.SubtreesCut
		pruneTotal.SchedulesSaved += res.Prune.SchedulesSaved
		pruneTotal.DPORRaces += res.Prune.DPORRaces
		pruneTotal.DPORBacktracks += res.Prune.DPORBacktracks
		pruneTotal.DPORSleepSkips += res.Prune.DPORSleepSkips
		if *verbose {
			keys := make([]string, 0, len(res.Outcomes))
			for o := range res.Outcomes {
				keys = append(keys, o)
			}
			sort.Strings(keys)
			for _, o := range keys {
				fmt.Fprintf(stdout, "       %6d  %s\n", res.Outcomes[o], o)
			}
		}
		if *witness && len(res.Witness) > 0 {
			fmt.Fprintln(stdout, "       witness schedule:")
			for _, line := range res.Witness {
				fmt.Fprintln(stdout, "         "+line)
			}
			fmt.Fprintf(stdout, "       witness choices (replayable with tso.ReplaySchedule): %v\n", res.WitnessChoices)
		}
	}
	if *prune {
		fmt.Fprintf(stdout, "pruning: %d states seen, %d deduped, %d subtrees cut, %d schedules saved\n",
			pruneTotal.StatesSeen, pruneTotal.StatesDeduped, pruneTotal.SubtreesCut, pruneTotal.SchedulesSaved)
	}
	if *dpor {
		fmt.Fprintf(stdout, "dpor: %d races detected, %d backtracks, %d sleep skips\n",
			pruneTotal.DPORRaces, pruneTotal.DPORBacktracks, pruneTotal.DPORSleepSkips)
	}
	if failures > 0 {
		logger.Printf("%d test(s) FAILED", failures)
		return 1
	}
	return 0
}

// checkMode refuses flags the chosen mode would ignore: the litmus flags
// and file arguments under -fuzz, the other litmus flags and file
// arguments under -list, and -seed and -runs without -fuzz.
func checkMode(fs *flag.FlagSet, fuzz, list bool) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case fuzz && litmusOnly[f.Name]:
			err = fmt.Errorf("-%s has no effect with -fuzz", f.Name)
		case list && litmusOnly[f.Name] && f.Name != "list":
			err = fmt.Errorf("-%s has no effect with -list", f.Name)
		case !fuzz && (f.Name == "seed" || f.Name == "runs"):
			err = fmt.Errorf("-%s has no effect without -fuzz", f.Name)
		}
	})
	switch {
	case err != nil || fs.NArg() == 0:
	case fuzz:
		err = fmt.Errorf("-fuzz runs no .litmus files (got %q)", fs.Arg(0))
	case list:
		err = fmt.Errorf("-list runs no .litmus files (got %q)", fs.Arg(0))
	}
	return err
}

// loadTests parses the built-in library, or the named .litmus files.
func loadTests(paths []string) ([]*litmusdsl.Test, error) {
	var tests []*litmusdsl.Test
	if len(paths) == 0 {
		for _, src := range litmusdsl.Library {
			t, err := litmusdsl.Parse(src)
			if err != nil {
				return nil, fmt.Errorf("built-in library: %w", err)
			}
			tests = append(tests, t)
		}
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		t, err := litmusdsl.Parse(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		tests = append(tests, t)
	}
	return tests, nil
}

// checkSpoolNames refuses test names that cannot name a spool file. A
// .litmus file names its own test, so a name must be one plain file-name
// component (PREFIX-<name>.ckpt then stays in PREFIX's directory), and
// no two tests may share a name (and with it a spool).
func checkSpoolNames(tests []*litmusdsl.Test) error {
	seen := map[string]bool{}
	for _, t := range tests {
		switch {
		case t.Name == "" || t.Name == "." || t.Name == ".." || filepath.Base(t.Name) != t.Name:
			return fmt.Errorf("-checkpoint: test name %q is not a plain file name", t.Name)
		case seen[t.Name]:
			return fmt.Errorf("-checkpoint: two tests are named %q", t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// oracleFuzz is the -fuzz mode: nprogs random programs, every algorithm,
// sampled schedules under the semantic oracle. Returns false if any
// violation was found.
func oracleFuzz(w io.Writer, nprogs int, seed int64, samples int) bool {
	if samples <= 0 {
		samples = 50
	}
	r := rand.New(rand.NewSource(seed))
	fmt.Fprintf(w, "Differential deque fuzzing: %d random programs x %d algorithms x %d sampled schedules (seed %d)\n\n",
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
			fmt.Fprintf(w, "VIOLATION: %s\n  %s\n", q, worst)
			if ce := rep.Counterexample; ce != nil {
				fmt.Fprintf(w, "  counterexample: seed %d, verdict %q\n", ce.Seed, ce.Outcome)
				for _, line := range ce.Trace {
					fmt.Fprintln(w, "    "+line)
				}
			}
		}
		rows = append(rows, []string{fmt.Sprintf("%d", i), p.String(), worst})
	}
	expt.WriteTable(w, []string{"#", "program", "result"}, rows)
	if violations > 0 {
		fmt.Fprintf(w, "\n%d violating (program, algorithm) pairs — see counterexamples above.\n", violations)
		return false
	}
	fmt.Fprintf(w, "\nAll programs satisfied their specs on every sampled schedule.\n")
	return true
}

// spoolPath maps a checkpoint prefix and test name to the test's spool
// file.
func spoolPath(prefix, name string) string {
	return prefix + "-" + name + ".ckpt"
}

// loadCheckpoint decodes a test's spooled frontier, if any. A nil
// checkpoint with a nil error means there is nothing to resume.
// litmusdsl.Run refuses a checkpoint of another machine, reduction or
// test name — the last is what a prefix collision between two tests
// looks like on disk.
func loadCheckpoint(prefix, name string) (*tso.Checkpoint, error) {
	path := spoolPath(prefix, name)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err == nil {
		var cp *tso.Checkpoint
		if cp, err = (tso.BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(data)); err == nil {
			return cp, nil
		}
	}
	return nil, fmt.Errorf("checkpoint %s: %w", path, err)
}

// writeCheckpoint spools cp for the test atomically: the frontier is
// written to a temp file beside the final path and renamed over it, so
// an interrupted write can never leave a truncated checkpoint where the
// next run would trust it.
func writeCheckpoint(prefix, name string, cp *tso.Checkpoint) error {
	path := spoolPath(prefix, name)
	var buf bytes.Buffer
	if err := (tso.BinaryCodec{}).EncodeCheckpoint(&buf, cp); err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := os.WriteFile(path+".tmp", buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// clearCheckpoint removes a completed test's spool file.
func clearCheckpoint(prefix, name string) error {
	if err := os.Remove(spoolPath(prefix, name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
