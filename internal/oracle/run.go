package oracle

import (
	"sync"

	"repro/internal/tso"
)

// Scenario is one oracle-checked workload: a machine configuration plus a
// factory that builds the per-thread programs recording into a history
// the caller supplies. Build is invoked once per explored schedule
// (concurrently on distinct machines when the exhaustive engine runs
// parallel workers), so it must construct fresh per-run state — queue,
// task counters — on every call and must not write captured shared
// state. The history arrives empty; Build records into it and does not
// keep it past the run.
type Scenario struct {
	// Name identifies the scenario in reports and corpus files.
	Name string
	// Config is the machine configuration the scenario runs under.
	Config tso.Config
	// Build allocates the scenario on m and returns one program per
	// configured thread, wired to record the run's events into h.
	Build func(m *tso.Machine, h *History) []func(tso.Context)
}

// Outcomes adapts the scenario to the exhaustive engine's callback pair:
// a program factory and a per-run verdict function checking spec (nil
// means Precise). The pair shares internal state and is safe for the
// engine's parallel workers; callers that drive tso.ExploreExhaustive,
// tso.ShardFrontier, or a resumed shard directly (the verification
// service's dispatcher) get verdict bucketing identical to Run's.
func (sc Scenario) Outcomes(spec Spec) (mk func(m *tso.Machine) []func(tso.Context), out func(m *tso.Machine) string) {
	if spec == nil {
		spec = Precise{}
	}
	// The engines call mk and out for the same run on the same worker and
	// machine, one run at a time per machine. Each machine therefore owns
	// one history for the pair's lifetime, reset at every mk and read by
	// the out that follows; its event backing is reused across the runs.
	var mu sync.Mutex
	hists := map[*tso.Machine]*History{}
	mk = func(m *tso.Machine) []func(tso.Context) {
		mu.Lock()
		h := hists[m]
		if h == nil {
			h = NewHistory()
			hists[m] = h
		}
		mu.Unlock()
		h.Reset()
		return sc.Build(m, h)
	}
	out = func(m *tso.Machine) string {
		mu.Lock()
		h := hists[m]
		mu.Unlock()
		return RenderVerdict(spec.Check(h))
	}
	return mk, out
}

// RunOptions configures an oracle Run.
type RunOptions struct {
	// Spec is the contract to check (default Precise).
	Spec Spec
	// MaxSchedules caps exhaustive exploration (default 1<<20 schedules;
	// see tso.ExploreOptions.MaxRuns).
	MaxSchedules int
	// MaxStepsPerRun bounds each schedule; step-limited runs are bucketed
	// under "<step-limit>" and not spec-checked (their histories are
	// legitimately torn). Default 100_000.
	MaxStepsPerRun int64
	// Parallel is the exhaustive engine's worker count (<=1 sequential).
	Parallel int
	// Prune enables the exhaustive engine's canonical-state memoization.
	// Sound for oracle verdicts because every Spec is order-insensitive
	// (see the package comment).
	Prune bool
	// SleepSets additionally prunes commuting drain orders; the set of
	// reachable verdicts is preserved, per-verdict counts are not.
	SleepSets bool
	// MaxReorderings, when >= 1, restricts exhaustive exploration to
	// schedules with at most that many store→load reorderings
	// (tso.ExhaustiveOptions.MaxReorderings). Zero or negative explores
	// the full TSO[S] schedule space. A clean verdict under a bound k is
	// a proof over the k-bounded schedule space only.
	MaxReorderings int
	// DPOR enables source-set dynamic partial-order reduction
	// (tso.ExhaustiveOptions.DPOR): one executed run per Mazurkiewicz
	// class. Sound for oracle verdicts — the set of reachable verdicts,
	// Complete, and Violating > 0 are preserved — but per-verdict counts
	// collapse to class representatives, so a DPOR report's Outcomes
	// tallies are not comparable to an unreduced run's. Incompatible
	// with MaxReorderings and PSO (tso.ExhaustiveOptions.DPOR); Prune
	// and SleepSets are superseded and auto-disabled under it.
	DPOR bool
	// SampleRuns, when positive, switches from exhaustive exploration to
	// chaos sampling under seeds 0..SampleRuns-1 — the cheap mode the
	// fuzzing harness uses.
	SampleRuns int
	// Counterexample asks Run to attach a violating schedule's replayable
	// choices and trace. Exhaustive mode takes it from the exploration
	// that produced the verdict (WitnessCounterexample): it respects the
	// reorder bound and is present whenever Violating > 0. Sampling mode
	// searches the seeds again and may come back nil even then.
	Counterexample bool
}

// Counterexample is a replayable witness of a spec violation: the
// schedule that produced it (decision choices for Replay, or a chaos seed
// in sampling mode) plus the machine-level trace of the interleaving.
type Counterexample struct {
	// Outcome is the canonical verdict string (RenderVerdict).
	Outcome string `json:"outcome"`
	// Violations are the spec violations the schedule produced.
	Violations []Violation `json:"-"`
	// Choices is the schedule's decision prefix, replayable with Replay /
	// tso.ReplaySchedule. Nil for sampling-mode counterexamples.
	Choices []int `json:"choices"`
	// Seed is the chaos seed that produced the violation in sampling
	// mode, -1 otherwise.
	Seed int64 `json:"seed"`
	// Trace is the machine-level event dump (tso.Event strings, schedule
	// order, most recent window) of the violating run.
	Trace []string `json:"-"`
}

// Report summarizes an oracle Run over a scenario's schedules.
type Report struct {
	// Scenario and Spec name what ran and against which contract.
	Scenario string
	// Spec is the checked specification's name.
	Spec string
	// Outcomes tallies schedules by canonical verdict string ("ok",
	// "lost t3", "<step-limit>", …).
	Outcomes map[string]int
	// Schedules is the number of schedules accounted for (with pruning,
	// more than were executed).
	Schedules int
	// Executed is the number of schedules actually run on a machine.
	Executed int
	// Complete reports whether the whole decision tree was covered
	// (always false in sampling mode).
	Complete bool
	// StepLimited counts schedules that hit MaxStepsPerRun.
	StepLimited int
	// Violating is the number of accounted schedules whose verdict was a
	// violation (IsViolation).
	Violating int
	// Counterexample is a replayable violating schedule, when requested
	// and found; see RunOptions.Counterexample.
	Counterexample *Counterexample
}

// Run explores the scenario's schedules — exhaustively (optionally
// parallel and pruned) or by chaos sampling — checking every completed
// run's history against the spec and bucketing it by verdict.
func Run(sc Scenario, opts RunOptions) Report {
	spec := opts.Spec
	if spec == nil {
		spec = Precise{}
	}
	mk, out := sc.Outcomes(spec)

	rep := Report{Scenario: sc.Name, Spec: spec.Name()}
	var set tso.OutcomeSet
	var res tso.ExploreResult
	if opts.SampleRuns > 0 {
		c := sc.Config
		if opts.MaxStepsPerRun > 0 {
			c.MaxSteps = opts.MaxStepsPerRun
		}
		set = tso.SampleOutcomes(c, opts.SampleRuns, mk, out)
		rep.Executed = opts.SampleRuns
	} else {
		set, res = tso.ExploreExhaustive(sc.Config, mk, out, tso.ExhaustiveOptions{
			ExploreOptions: tso.ExploreOptions{MaxRuns: opts.MaxSchedules, MaxStepsPerRun: opts.MaxStepsPerRun},
			Parallel:       opts.Parallel,
			Prune:          opts.Prune,
			SleepSets:      opts.SleepSets,
			MaxReorderings: opts.MaxReorderings,
			DPOR:           opts.DPOR,
		})
		rep.Executed = res.Runs
		rep.Complete = res.Complete
		rep.StepLimited = res.StepLimited
	}
	rep.Outcomes, rep.Schedules = set.Counts, set.Total()
	for o, n := range rep.Outcomes {
		if IsViolation(o) {
			rep.Violating += n
		}
	}
	if rep.Violating > 0 && opts.Counterexample {
		if opts.SampleRuns > 0 {
			rep.Counterexample = FindCounterexample(sc, spec, opts)
		} else {
			rep.Counterexample = WitnessCounterexample(sc, spec, res, opts.MaxStepsPerRun)
		}
	}
	return rep
}

// IsViolation reports whether a verdict string names a spec violation:
// every verdict but "ok" and the engine's tso.StepLimitOutcome.
func IsViolation(outcome string) bool {
	return outcome != "ok" && outcome != tso.StepLimitOutcome
}

// traceWindow is how many machine events a counterexample retains.
const traceWindow = 4096

// WitnessCounterexample packages the smallest violating witness of an
// exhaustive exploration of sc (res.FirstWitness under IsViolation): one
// Replay under maxStepsPerRun, the exploration's step bound, yields its
// violations and trace. Nil when no witnessed verdict is a violation.
func WitnessCounterexample(sc Scenario, spec Spec, res tso.ExploreResult, maxStepsPerRun int64) *Counterexample {
	outcome, choices, ok := res.FirstWitness(IsViolation)
	if !ok {
		return nil
	}
	// The witness completed under this step bound, so its replay does.
	sc.Config.MaxSteps = maxStepsPerRun
	viols, trace, _ := Replay(sc, spec, choices)
	return &Counterexample{Outcome: outcome, Violations: viols, Choices: choices, Seed: -1, Trace: trace}
}

// FindCounterexample searches the scenario for the first schedule that
// violates spec (nil means Precise) and packages it replayably: a
// sequential depth-first search of the unreduced tree, ignoring opts'
// Prune, DPOR and MaxReorderings, that stops at the first violation
// within opts.MaxSchedules schedules (or opts.SampleRuns seeds). The
// early exit finds witnesses on programs whose full exploration would
// not finish (corpus regeneration) and times the search alone (the
// benchmark's probe); Run uses it only in sampling mode.
func FindCounterexample(sc Scenario, spec Spec, opts RunOptions) *Counterexample {
	if spec == nil {
		spec = Precise{}
	}
	// The searches run untraced; only the one hit is rerun with a tracer.
	if opts.SampleRuns > 0 {
		c := sc.Config
		if opts.MaxStepsPerRun > 0 {
			c.MaxSteps = opts.MaxStepsPerRun
		}
		m := tso.NewMachine(c)
		defer m.Close()
		for seed := 0; seed < opts.SampleRuns; seed++ {
			m.ResetSeed(int64(seed))
			h := NewHistory()
			if err := m.Run(sc.Build(m, h)...); err != nil {
				continue
			}
			viols := spec.Check(h)
			if len(viols) == 0 {
				continue
			}
			tr := tso.NewRingTracer(traceWindow)
			m.SetTracer(tr)
			m.ResetSeed(int64(seed))
			m.Run(sc.Build(m, NewHistory())...)
			return &Counterexample{
				Outcome:    RenderVerdict(viols),
				Violations: viols,
				Seed:       int64(seed),
				Trace:      traceLines(tr),
			}
		}
		return nil
	}
	var ce *Counterexample
	var hist *History
	mk := func(m *tso.Machine) []func(tso.Context) {
		hist = NewHistory()
		return sc.Build(m, hist)
	}
	eopts := tso.ExploreOptions{MaxRuns: opts.MaxSchedules, MaxStepsPerRun: opts.MaxStepsPerRun}
	tso.ExploreWithChoices(sc.Config, mk, eopts, func(m *tso.Machine, err error, choices []int) bool {
		if err != nil {
			return false
		}
		viols := spec.Check(hist)
		if len(viols) == 0 {
			return false
		}
		ce = &Counterexample{
			Outcome:    RenderVerdict(viols),
			Violations: viols,
			Choices:    append([]int(nil), choices...),
			Seed:       -1,
		}
		return true
	})
	if ce != nil {
		// Replay under the search's step bound (zero defaults alike).
		rsc := sc
		rsc.Config.MaxSteps = opts.MaxStepsPerRun
		_, ce.Trace, _ = Replay(rsc, spec, ce.Choices)
	}
	return ce
}

// Replay re-executes one recorded schedule of the scenario (a
// Counterexample's Choices, or a corpus file's) and returns the spec's
// violations for that single run plus its machine-level trace. A non-nil
// error means the replayed schedule did not complete (step limit or
// program panic); its history is not checked.
func Replay(sc Scenario, spec Spec, choices []int) ([]Violation, []string, error) {
	if spec == nil {
		spec = Precise{}
	}
	var tr *tso.RingTracer
	var hist *History
	mk := func(m *tso.Machine) []func(tso.Context) {
		tr = tso.NewRingTracer(traceWindow)
		m.SetTracer(tr)
		hist = NewHistory()
		return sc.Build(m, hist)
	}
	cfg := sc.Config
	err := tso.ReplaySchedule(cfg, mk, choices, nil)
	if err != nil {
		return nil, traceLines(tr), err
	}
	return spec.Check(hist), traceLines(tr), nil
}

// traceLines renders a ring tracer's retained events, oldest first.
func traceLines(tr *tso.RingTracer) []string {
	evs := tr.Events()
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.String()
	}
	return out
}
