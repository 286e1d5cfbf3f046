// Command litmustool runs memory-model litmus tests on the abstract
// TSO[S]/PSO machine by exhaustive schedule exploration. With no
// arguments it runs the built-in library of classic tests (SB, MP, LB,
// CoRR, 2+2W, S, R, WRC, fence/CAS variants) and checks each literature
// verdict; given file paths it runs those tests instead.
//
// Usage:
//
//	litmustool [-list] [-max 2000000] [-par N] [-prune] [-dpor] [-reorder K] [-cpuprofile f] [-memprofile f] [file.litmus ...]
//
// -par spreads the exploration over N workers; -prune turns on
// canonical-state memoization, which proves the same outcome counts while
// executing a fraction of the schedules (the executed= column). -dpor
// switches to source-set dynamic partial-order reduction: the outcome
// set and verdict are identical while only one schedule per equivalence
// class executes (PSO tests in the run fall back to unreduced
// exploration). -reorder K bounds exploration to schedules with at most
// K store->load reorderings — verdicts are then proofs over the
// K-bounded space only. See internal/litmusdsl for the file format.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/litmusdsl"
	"repro/internal/runner"
	"repro/internal/tso"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("litmustool: ")
	list := flag.Bool("list", false, "print the built-in library and exit")
	maxSched := flag.Int("max", 2_000_000, "schedule-exploration cap per test")
	verbose := flag.Bool("v", false, "print every distinct outcome per test")
	witness := flag.Bool("witness", false, "for allowed tests, print one schedule reaching the condition")
	par := flag.Int("par", 1, "exploration workers per test")
	prune := flag.Bool("prune", false, "canonical-state pruning (same counts, fewer executed schedules)")
	dpor := flag.Bool("dpor", false, "source-set DPOR (same outcome set and verdict, one executed schedule per equivalence class; PSO tests run unreduced)")
	reorder := flag.Int("reorder", 0, "bound schedules to at most K store->load reorderings (0: unbounded); verdicts are proofs over the bounded space only")
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

	if *list {
		for _, src := range litmusdsl.Library {
			fmt.Println(src)
			fmt.Println()
		}
		return
	}

	var tests []*litmusdsl.Test
	if flag.NArg() == 0 {
		for _, src := range litmusdsl.Library {
			t, err := litmusdsl.Parse(src)
			if err != nil {
				log.Fatalf("built-in library: %v", err)
			}
			tests = append(tests, t)
		}
	}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		t, err := litmusdsl.Parse(string(data))
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		tests = append(tests, t)
	}

	failures := 0
	var pruneTotal tso.PruneStats
	for _, t := range tests {
		start := time.Now()
		useDPOR := *dpor && t.Model != tso.ModelPSO
		res, err := litmusdsl.Run(t, litmusdsl.RunOptions{
			MaxSchedules: *maxSched, Witness: *witness, Parallel: *par, Prune: *prune,
			DPOR: useDPOR, MaxReorderings: *reorder,
		})
		if err != nil {
			log.Fatalf("%s: %v", t.Name, err)
		}
		status := "ok  "
		if !res.Ok() {
			status = "FAIL"
			failures++
		}
		fmt.Printf("%s %-14s model=%-3s verdict=%-10s expect=%-9s schedules=%-9d executed=%-7d complete=%-5v occ=%v tree=d%d/f%d/c%d %v\n",
			status, t.Name, t.Model, res.Verdict, t.Expect, res.Schedules, res.Executed, res.Complete,
			res.MaxOccupancy, res.Tree.MaxDepth, res.Tree.MaxFanout, res.Tree.ChoicePoints,
			time.Since(start).Round(time.Millisecond))
		pruneTotal.StatesSeen += res.Prune.StatesSeen
		pruneTotal.StatesDeduped += res.Prune.StatesDeduped
		pruneTotal.SubtreesCut += res.Prune.SubtreesCut
		pruneTotal.SchedulesSaved += res.Prune.SchedulesSaved
		pruneTotal.SleepSkips += res.Prune.SleepSkips
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
				fmt.Printf("       %6d  %s\n", res.Outcomes[o], o)
			}
		}
		if *witness && len(res.Witness) > 0 {
			fmt.Println("       witness schedule:")
			for _, line := range res.Witness {
				fmt.Println("         " + line)
			}
			fmt.Printf("       witness choices (replayable with tso.ReplaySchedule): %v\n", res.WitnessChoices)
		}
	}
	if *prune {
		fmt.Printf("pruning: %d states seen, %d deduped, %d subtrees cut, %d schedules saved\n",
			pruneTotal.StatesSeen, pruneTotal.StatesDeduped, pruneTotal.SubtreesCut, pruneTotal.SchedulesSaved)
	}
	if *dpor {
		fmt.Printf("dpor: %d races detected, %d backtracks, %d sleep skips\n",
			pruneTotal.DPORRaces, pruneTotal.DPORBacktracks, pruneTotal.DPORSleepSkips)
	}
	if failures > 0 {
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
		log.Fatalf("%d test(s) FAILED", failures)
	}
}
