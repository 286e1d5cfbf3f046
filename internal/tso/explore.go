package tso

import (
	"errors"
	"fmt"
	"slices"
)

// This file implements exhaustive schedule exploration ("stateless model
// checking") over the abstract TSO[S] machine: every interleaving of
// thread actions and store-buffer drains of a small program is enumerated
// by depth-first search over the machine's decision tree. Where the chaos
// engine samples schedules randomly, exploration *proves* properties of
// small litmus programs — e.g. that the store-buffering outcome r0=r1=0 is
// reachable without fences and unreachable with them, or that FF-CL's
// thief aborts in every schedule of the laws-of-order state ρ.
//
// The exploration is the standard replay technique: each run re-executes
// the program from scratch, following a recorded prefix of choices and
// taking the first branch afterwards; when a run completes, the deepest
// choice with untried branches is advanced. Programs must therefore be
// replayable — the factory passed to the explorer is invoked once per run
// and must rebuild all captured state.

// ExploreOptions bounds an exploration.
type ExploreOptions struct {
	// MaxRuns caps the number of schedules (default 1 << 20). If the tree
	// is larger, the exploration returns Complete=false.
	MaxRuns int
	// MaxStepsPerRun bounds each schedule (default 100_000) so that
	// blocking programs (e.g. a lone THEP thief) terminate each run with
	// ErrStepLimit rather than hanging the search.
	MaxStepsPerRun int64
}

func (o ExploreOptions) withDefaults() ExploreOptions {
	if o.MaxRuns <= 0 {
		o.MaxRuns = 1 << 20
	}
	if o.MaxStepsPerRun <= 0 {
		o.MaxStepsPerRun = 100_000
	}
	return o
}

// TreeStats describes the shape of the explored decision tree.
type TreeStats struct {
	// MaxDepth is the longest schedule in decision steps.
	MaxDepth int
	// MaxFanout is the widest single decision (threads + drainable buffers).
	MaxFanout int
	// ChoicePoints counts the distinct tree nodes with fanout >= 2 — the
	// places where the schedule genuinely branched.
	ChoicePoints int64
}

func (t *TreeStats) node(depth, fanout int) {
	if depth+1 > t.MaxDepth {
		t.MaxDepth = depth + 1
	}
	if fanout > t.MaxFanout {
		t.MaxFanout = fanout
	}
	if fanout >= 2 {
		t.ChoicePoints++
	}
}

func (t *TreeStats) merge(o TreeStats) {
	if o.MaxDepth > t.MaxDepth {
		t.MaxDepth = o.MaxDepth
	}
	if o.MaxFanout > t.MaxFanout {
		t.MaxFanout = o.MaxFanout
	}
	t.ChoicePoints += o.ChoicePoints
}

// PruneStats reports the state-space reduction achieved by the exhaustive
// engine's pruning (all zero when pruning is disabled).
type PruneStats struct {
	// StatesSeen is the number of canonical states hashed (one per tree
	// node the engine actually entered).
	StatesSeen int64
	// StatesDeduped is the number of nodes whose canonical state was
	// already memoized, so their subtree was credited from the memo table
	// instead of re-explored.
	StatesDeduped int64
	// SubtreesCut is the total number of subtrees removed from the search:
	// memo hits plus sleep-set skips.
	SubtreesCut int64
	// SchedulesSaved is the number of complete schedules accounted from the
	// memo table without being executed.
	SchedulesSaved int64
	// SleepSkips counts branches skipped by the commutativity sleep sets.
	SleepSkips int64
	// ReorderSkips counts branches pruned by the reorder bound
	// (ExhaustiveOptions.MaxReorderings): loads that would have pushed
	// their schedule past k store→load reorderings.
	ReorderSkips int64
	// DPORRaces counts reversible races source-set DPOR detected on
	// executed runs (ExhaustiveOptions.DPOR). A race may be counted
	// again when later runs re-execute the same conflicting suffix.
	DPORRaces int64
	// DPORBacktracks counts branches race handling added to frame
	// backtrack sets — the schedules DPOR decided it must explore.
	DPORBacktracks int64
	// DPORSleepSkips counts branches skipped because the
	// dependence-derived sleep set already covers them (DPOR's
	// generalization of SleepSkips).
	DPORSleepSkips int64
}

func (p *PruneStats) merge(o PruneStats) {
	p.StatesSeen += o.StatesSeen
	p.StatesDeduped += o.StatesDeduped
	p.SubtreesCut += o.SubtreesCut
	p.SchedulesSaved += o.SchedulesSaved
	p.SleepSkips += o.SleepSkips
	p.ReorderSkips += o.ReorderSkips
	p.DPORRaces += o.DPORRaces
	p.DPORBacktracks += o.DPORBacktracks
	p.DPORSleepSkips += o.DPORSleepSkips
}

// ExploreResult summarizes an exploration.
type ExploreResult struct {
	// Runs is the number of schedules executed on a machine. Under pruning
	// this is smaller than the number of schedules accounted for (see
	// OutcomeSet.Total), which is the whole point.
	Runs int
	// Complete reports whether the entire decision tree was covered.
	Complete bool
	// StepLimited counts runs that hit MaxStepsPerRun (blocking programs).
	StepLimited int
	// Tree reports the shape of the explored decision tree.
	Tree TreeStats
	// Prune reports the reduction achieved by the exhaustive engine
	// (zero for the sequential reference engine).
	Prune PruneStats
	// Memo reports the memo arena's end state — occupancy, evictions,
	// stripe contention (zero unless the exhaustive engine pruned).
	Memo MemoStats
	// Checkpoint holds the serialized unexplored frontier when an
	// exhaustive exploration stopped at its run budget; pass it back via
	// ExhaustiveOptions.Resume to continue. Nil when Complete, and always
	// nil for the sequential reference engine.
	Checkpoint *Checkpoint
	// Witnesses maps every counted outcome to the lexicographically
	// smallest executed schedule with that outcome, in ReplaySchedule
	// format. Without DPOR or SleepSets that is the outcome's first
	// schedule in depth-first order, except under parallel Prune, where,
	// like Runs, it depends on timing.
	Witnesses map[string][]int
}

// StepLimitOutcome is the outcome every engine buckets a schedule under
// when it hits the per-run step limit.
const StepLimitOutcome = "<step-limit>"

// FirstWitness returns the smallest witness among the outcomes match
// accepts, and its outcome; ok is false when none matches.
func (r ExploreResult) FirstWitness(match func(outcome string) bool) (outcome string, choices []int, ok bool) {
	for o, w := range r.Witnesses {
		if match(o) && (!ok || slices.Compare(w, choices) < 0) {
			outcome, choices, ok = o, w, true
		}
	}
	return outcome, choices, ok
}

// keepWitness records choices as outcome's witness in ws when it is the
// smallest seen so far, copying it only then.
func keepWitness(ws map[string][]int, outcome string, choices []int) {
	if w, ok := ws[outcome]; !ok || slices.Compare(choices, w) < 0 {
		ws[outcome] = slices.Clone(choices)
	}
}

// ExploreWithChoices is the sequential reference engine: it enumerates
// schedules of the program built by mkProgs, depth first on one machine
// Reset between runs. For every completed run it calls visit with the
// machine (buffers flushed; inspect memory with Peek), the run's error
// (nil, step-limit, or a program panic), and the run's schedule:
// choices[i] is the branch taken at decision step i (an index into the
// step's action list — threads with pending requests in thread order,
// then drainable buffers in thread order). Exploration stops early when
// visit returns true (Complete stays false in that case), which extracts
// a witness without enumerating the rest of the tree. The choices slice
// is reused across runs and only valid for the duration of the call;
// callers that keep a schedule (a witness, a counterexample for
// ReplaySchedule) must copy it.
//
// mkProgs is called once per run with the Reset machine; it must Alloc
// whatever it needs and return one program per configured thread.
func ExploreWithChoices(cfg Config, mkProgs func(m *Machine) []func(Context), opts ExploreOptions, visit func(m *Machine, err error, choices []int) bool) ExploreResult {
	opts = opts.withDefaults()
	var res ExploreResult

	// prefix holds the choice taken at each decision step of the current
	// run; fanout holds the number of alternatives that were available.
	var prefix, fanout []int
	var depth int
	var mismatch bool

	// One machine serves the whole exploration: each run Resets it back to
	// the just-constructed state instead of paying NewMachine (zeroed
	// memory arena, buffer allocation, goroutine spawns) per schedule.
	c := cfg
	c.MaxSteps = opts.MaxStepsPerRun
	// Deterministic enumeration: replay the recorded prefix, then take
	// the first untried branch.
	m := newChooserMachine(c, &chooserPolicy{choose: func(acts []action) int {
		n := len(acts)
		if depth < len(prefix) {
			if depth < len(fanout) && fanout[depth] != n {
				// The program is not replay-deterministic; flag it
				// rather than silently exploring garbage.
				mismatch = true
			}
			i := prefix[depth]
			depth++
			return i
		}
		res.Tree.node(depth, n)
		prefix = append(prefix, 0)
		fanout = append(fanout, n)
		depth++
		return 0
	}})
	defer m.Close()

	for {
		depth = 0
		mismatch = false
		m.Reset()
		progs := mkProgs(m)
		err := m.Run(progs...)
		if mismatch {
			panic("tso: Explore program is not replay-deterministic (fanout changed under an identical choice prefix)")
		}
		if errors.Is(err, ErrStepLimit) {
			res.StepLimited++
		}
		res.Runs++
		if visit(m, err, prefix[:depth]) {
			return res
		}

		// Truncate bookkeeping to the depth actually reached (a run can
		// end before consuming the whole prefix if an error cut it short).
		prefix = prefix[:depth]
		fanout = fanout[:depth]

		// Advance to the next schedule: bump the deepest choice that
		// still has untried alternatives.
		i := len(prefix) - 1
		for i >= 0 && prefix[i]+1 >= fanout[i] {
			i--
		}
		if i < 0 {
			res.Complete = true
			return res
		}
		if res.Runs >= opts.MaxRuns {
			return res
		}
		prefix = prefix[:i+1]
		fanout = fanout[:i+1]
		prefix[i]++
	}
}

// ReplaySchedule executes exactly one schedule of the program built by
// mkProgs: the machine follows the recorded choices (the slice a previous
// ExploreWithChoices visit handed out, or a corpus file), then takes the
// first available action once the prefix is exhausted. A choice outside
// the step's action range clamps to the last alternative, so arbitrary
// byte-derived prefixes (fuzzers) replay some schedule rather than
// panicking. mkProgs may attach a tracer via Machine.SetTracer to dump
// the replayed interleaving; visit (optional) receives the machine before
// it is closed. Returns the run error (nil, step-limit, or panic).
func ReplaySchedule(cfg Config, mkProgs func(m *Machine) []func(Context), choices []int, visit func(m *Machine, err error)) error {
	c := cfg
	if c.MaxSteps <= 0 {
		c.MaxSteps = 100_000
	}
	depth := 0
	m := newChooserMachine(c, &chooserPolicy{choose: func(acts []action) int {
		i := 0
		if depth < len(choices) {
			i = choices[depth]
			if i >= len(acts) {
				i = len(acts) - 1
			}
			if i < 0 {
				i = 0
			}
		}
		depth++
		return i
	}})
	defer m.Close()
	progs := mkProgs(m)
	err := m.Run(progs...)
	if visit != nil {
		visit(m, err)
	}
	return err
}

// OutcomeSet is a convenience for litmus-style explorations: it tallies
// string-rendered outcomes across all schedules.
type OutcomeSet struct {
	Counts map[string]int
	// MaxOccupancy is the per-thread high-water mark of buffered stores
	// over every explored schedule — the observed reordering-bound
	// witness (≤ Config.ObservableBound by construction).
	MaxOccupancy []int
}

// ExploreOutcomes runs ExploreWithChoices and buckets each run by the
// string outcome returns, each outcome's first schedule its witness. It
// panics on program panics, since a litmus program must not fail.
func ExploreOutcomes(cfg Config, mkProgs func(m *Machine) []func(Context), outcome func(m *Machine) string, opts ExploreOptions) (OutcomeSet, ExploreResult) {
	set := OutcomeSet{Counts: map[string]int{}, MaxOccupancy: make([]int, cfg.Threads)}
	ws := map[string][]int{}
	res := ExploreWithChoices(cfg, mkProgs, opts, func(m *Machine, err error, choices []int) bool {
		for tid := range set.MaxOccupancy {
			if occ := m.ThreadMaxOccupancy(tid); occ > set.MaxOccupancy[tid] {
				set.MaxOccupancy[tid] = occ
			}
		}
		if err != nil && !errors.Is(err, ErrStepLimit) {
			panic(fmt.Sprintf("tso: litmus program failed: %v", err))
		}
		o := StepLimitOutcome
		if err == nil {
			o = outcome(m)
		}
		set.Counts[o]++
		keepWitness(ws, o, choices)
		return false
	})
	res.Witnesses = ws
	return set, res
}

// Has reports whether an outcome was observed.
func (s OutcomeSet) Has(outcome string) bool { return s.Counts[outcome] > 0 }

// Total is the number of schedules accounted for across all outcomes.
// Without pruning it equals ExploreResult.Runs; with pruning it counts the
// whole tree while Runs counts only the schedules actually executed.
func (s OutcomeSet) Total() int {
	n := 0
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// SampleOutcomes is the chaos-sampling counterpart of ExploreOutcomes: it
// runs the program under `runs` seeded adversarial schedules (seeds
// 0..runs-1) and buckets each run by its string outcome, so commands can
// switch between sampling and exhaustive exploration without maintaining
// two code paths. Like ExploreOutcomes it panics on a program failure and
// buckets step-limited runs under StepLimitOutcome.
func SampleOutcomes(cfg Config, runs int, mkProgs func(m *Machine) []func(Context), outcome func(m *Machine) string) OutcomeSet {
	set := OutcomeSet{Counts: map[string]int{}, MaxOccupancy: make([]int, cfg.Threads)}
	if runs > 0 {
		c := cfg
		c.Seed = 0
		m := NewMachine(c)
		defer m.Close()
		for seed := 0; seed < runs; seed++ {
			m.ResetSeed(int64(seed))
			progs := mkProgs(m)
			err := m.Run(progs...)
			for tid := range set.MaxOccupancy {
				if occ := m.ThreadMaxOccupancy(tid); occ > set.MaxOccupancy[tid] {
					set.MaxOccupancy[tid] = occ
				}
			}
			switch {
			case errors.Is(err, ErrStepLimit):
				set.Counts[StepLimitOutcome]++
			case err != nil:
				panic(fmt.Sprintf("tso: sampled program failed: %v", err))
			default:
				set.Counts[outcome(m)]++
			}
		}
	}
	return set
}
