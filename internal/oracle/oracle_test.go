package oracle

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tso"
)

// exhaustOpts is the shared configuration for the pruned full-state
// explorations below: parallel workers exercise the mc frontier path, and
// pruning exercises the order-insensitivity the specs guarantee.
func exhaustOpts(spec Spec) RunOptions {
	return RunOptions{
		Spec:           spec,
		Prune:          true,
		Parallel:       2,
		Counterexample: true,
	}
}

// TestOracleChaseLevExhaustive is the acceptance gate for the precise
// spec: a pruned full-state exploration of a Chase-Lev put/take/steal
// program with a draining worker reports zero violations.
func TestOracleChaseLevExhaustive(t *testing.T) {
	p := Program{Algo: core.AlgoChaseLev, S: 2, Prefill: 2, WorkerOps: "PT", Thieves: []int{2}, Drain: true}
	rep := Run(p.Scenario(), exhaustOpts(p.Spec()))
	if !rep.Complete {
		t.Fatalf("exploration incomplete after %d executed schedules", rep.Executed)
	}
	if rep.Violating != 0 {
		t.Fatalf("Chase-Lev violated its spec: %v (counterexample: %+v)", rep.Outcomes, rep.Counterexample)
	}
	if rep.Outcomes["ok"] == 0 {
		t.Fatalf("no ok schedules recorded: %v", rep.Outcomes)
	}
	t.Logf("chaselev: %d schedules (%d executed), outcomes %v", rep.Schedules, rep.Executed, rep.Outcomes)
}

// TestOracleIdempotentFIFOExhaustive is the acceptance gate for the
// idempotent spec: full-state exploration of the idempotent FIFO reports
// zero violations — duplicates are allowed, loss and phantoms are not.
func TestOracleIdempotentFIFOExhaustive(t *testing.T) {
	p := Program{Algo: core.AlgoIdempotentFIFO, S: 1, Prefill: 2, WorkerOps: "T", Thieves: []int{1}, Drain: true}
	rep := Run(p.Scenario(), exhaustOpts(p.Spec()))
	if !rep.Complete {
		t.Fatalf("exploration incomplete after %d executed schedules", rep.Executed)
	}
	if rep.Violating != 0 {
		t.Fatalf("idempotent FIFO violated the idempotent spec: %v (counterexample: %+v)", rep.Outcomes, rep.Counterexample)
	}
	t.Logf("idempotent FIFO: %d schedules, outcomes %v", rep.Schedules, rep.Outcomes)
}

// TestOracleIdempotentFIFOMultiplicityReachable runs the same program
// against the *precise* spec and demonstrates that the multiplicity
// relaxation is real: some schedule double-delivers a task, so the
// precise spec must flag a duplicate that the idempotent spec accepts.
func TestOracleIdempotentFIFOMultiplicityReachable(t *testing.T) {
	p := Program{Algo: core.AlgoIdempotentFIFO, S: 1, Prefill: 2, WorkerOps: "T", Thieves: []int{1}, Drain: true}
	rep := Run(p.Scenario(), exhaustOpts(Precise{}))
	if !rep.Complete {
		t.Fatalf("exploration incomplete after %d executed schedules", rep.Executed)
	}
	if rep.Violating == 0 {
		t.Fatalf("no duplicate delivery found — the idempotent queue's relaxation never fired: %v", rep.Outcomes)
	}
	for o := range rep.Outcomes {
		if o != "ok" && o != "<step-limit>" && !strings.Contains(o, "duplicate") {
			t.Fatalf("idempotent FIFO produced a non-duplicate violation %q: %v", o, rep.Outcomes)
		}
	}
	if rep.Counterexample == nil {
		t.Fatal("no counterexample extracted for a reachable duplicate")
	}
}

// TestOracleFlagsUnsoundFFCL replays PR 3's headline unsoundness through
// the oracle: FF-CL with δ=1 below the machine's S=2 bound double-delivers
// a task in some schedule, and the counterexample is replayable.
func TestOracleFlagsUnsoundFFCL(t *testing.T) {
	p := Program{Algo: core.AlgoFFCL, S: 2, Delta: 1, Prefill: 3, WorkerOps: "TT", Thieves: []int{2}}
	rep := Run(p.Scenario(), exhaustOpts(Precise{}))
	if !rep.Complete {
		t.Fatalf("exploration incomplete after %d executed schedules", rep.Executed)
	}
	if rep.Violating == 0 {
		t.Fatalf("oracle missed the δ<S double delivery: %v", rep.Outcomes)
	}
	ce := rep.Counterexample
	if ce == nil {
		t.Fatal("no counterexample extracted")
	}
	if !strings.Contains(ce.Outcome, "duplicate") {
		t.Fatalf("counterexample outcome %q, want a duplicate", ce.Outcome)
	}
	if len(ce.Choices) == 0 || ce.Seed != -1 {
		t.Fatalf("exhaustive counterexample not replayable: %+v", ce)
	}
	if len(ce.Trace) == 0 {
		t.Fatal("counterexample carries no trace")
	}
	viols, trace, err := Replay(p.Scenario(), Precise{}, ce.Choices)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if got := RenderVerdict(viols); got != ce.Outcome {
		t.Fatalf("replay verdict %q != counterexample %q", got, ce.Outcome)
	}
	found := false
	for _, line := range trace {
		if strings.Contains(line, "drain") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("replay trace has no drain events:\n%s", strings.Join(trace, "\n"))
	}
}

// TestOracleSoundFFCLClean is the fixed-configuration counterpart: with
// δ=S the same duel has zero violations in the full tree.
func TestOracleSoundFFCLClean(t *testing.T) {
	p := Program{Algo: core.AlgoFFCL, S: 2, Delta: 2, Prefill: 3, WorkerOps: "TT", Thieves: []int{2}}
	rep := Run(p.Scenario(), exhaustOpts(Precise{}))
	if !rep.Complete {
		t.Fatalf("exploration incomplete after %d executed schedules", rep.Executed)
	}
	if rep.Violating != 0 {
		t.Fatalf("δ=S FF-CL flagged: %v (counterexample: %+v)", rep.Outcomes, rep.Counterexample)
	}
}

// TestOraclePruningPreservesVerdictCounts is the soundness check the
// package comment promises: with Prune on, the per-verdict schedule
// counts must be byte-identical to the unpruned sequential engine's.
func TestOraclePruningPreservesVerdictCounts(t *testing.T) {
	// The idempotent FIFO race tree is small enough to enumerate unpruned
	// and produces several verdict classes (ok plus two duplicate tasks),
	// so the comparison covers violating counts, not just clean ones.
	p := Program{Algo: core.AlgoIdempotentFIFO, S: 1, Prefill: 2, WorkerOps: "T", Thieves: []int{1}, Drain: true}
	plain := Run(p.Scenario(), RunOptions{Spec: Precise{}})
	pruned := Run(p.Scenario(), RunOptions{Spec: Precise{}, Prune: true, Parallel: 2})
	if !plain.Complete || !pruned.Complete {
		t.Fatal("incomplete exploration")
	}
	if len(plain.Outcomes) != len(pruned.Outcomes) {
		t.Fatalf("outcome sets differ: %v vs %v", plain.Outcomes, pruned.Outcomes)
	}
	for o, n := range plain.Outcomes {
		if pruned.Outcomes[o] != n {
			t.Fatalf("outcome %q: plain %d, pruned %d", o, n, pruned.Outcomes[o])
		}
	}
	if pruned.Executed >= plain.Executed {
		t.Fatalf("pruning saved nothing: %d vs %d executed", pruned.Executed, plain.Executed)
	}
}

// TestOracleSamplingMode exercises the chaos-sampling path: a sound
// configuration stays clean across seeded schedules, and the report
// accounts for every sampled run.
func TestOracleSamplingMode(t *testing.T) {
	p := Program{Algo: core.AlgoChaseLev, S: 2, Prefill: 2, WorkerOps: "PT", Thieves: []int{2}, Drain: true}
	rep := Run(p.Scenario(), RunOptions{Spec: p.Spec(), SampleRuns: 200})
	if rep.Schedules != 200 || rep.Executed != 200 {
		t.Fatalf("sampling accounted %d/%d schedules, want 200", rep.Schedules, rep.Executed)
	}
	if rep.Violating != 0 {
		t.Fatalf("sound Chase-Lev flagged under sampling: %v", rep.Outcomes)
	}
	if rep.Complete {
		t.Fatal("sampling must not claim completeness")
	}
}

// TestOracleSamplingCounterexample checks the sampling-mode witness path
// on the unsound FF-CL configuration: chaos schedules under a starved
// drain bias reach the double delivery, and the counterexample carries
// the seed and trace rather than choices.
func TestOracleSamplingCounterexample(t *testing.T) {
	p := Program{Algo: core.AlgoFFCL, S: 2, Delta: 1, Prefill: 3, WorkerOps: "TT", Thieves: []int{2}}
	sc := p.Scenario()
	sc.Config.DrainBias = 0.05
	rep := Run(sc, RunOptions{Spec: Precise{}, SampleRuns: 500, Counterexample: true})
	if rep.Violating == 0 {
		t.Skip("no violating seed in the sampled window; exhaustive coverage lives in TestOracleFlagsUnsoundFFCL")
	}
	ce := rep.Counterexample
	if ce == nil {
		t.Fatal("violations sampled but no counterexample extracted")
	}
	if ce.Seed < 0 || ce.Choices != nil {
		t.Fatalf("sampling counterexample should carry a seed, not choices: %+v", ce)
	}
	if len(ce.Trace) == 0 {
		t.Fatal("sampling counterexample has no trace")
	}
}

// TestCounterexampleTraceIsReplayed pins the exhaustive witness search's
// trace: the search runs untraced and replays only its hit, so the
// counterexample's trace must equal what Replay of its choices records —
// under the search's own step bound as well as the default one.
func TestCounterexampleTraceIsReplayed(t *testing.T) {
	p := Program{Algo: core.AlgoFFCL, S: 2, Delta: 1, Prefill: 3, WorkerOps: "TT", Thieves: []int{2}}
	for _, steps := range []int64{0, 5000} {
		sc := p.Scenario()
		ce := FindCounterexample(sc, Precise{}, RunOptions{MaxSchedules: 1 << 16, MaxStepsPerRun: steps})
		if ce == nil || len(ce.Trace) == 0 {
			t.Fatalf("steps=%d: no traced counterexample: %+v", steps, ce)
		}
		viols, trace, err := Replay(sc, Precise{}, ce.Choices)
		if err != nil || RenderVerdict(viols) != ce.Outcome {
			t.Fatalf("steps=%d: replay gave %q, %v; want %q", steps, RenderVerdict(viols), err, ce.Outcome)
		}
		if !reflect.DeepEqual(trace, ce.Trace) {
			t.Fatalf("steps=%d: counterexample trace differs from Replay's:\n%v\n%v", steps, ce.Trace, trace)
		}
	}
}

// TestSamplingCounterexampleTraceIsRerun pins the sampling witness
// search's trace: it must equal a traced run of the hit seed on a fresh
// machine.
func TestSamplingCounterexampleTraceIsRerun(t *testing.T) {
	p := Program{Algo: core.AlgoFFCL, S: 2, Delta: 1, Prefill: 3, WorkerOps: "TT", Thieves: []int{2}}
	sc := p.Scenario()
	sc.Config.DrainBias = 0.05
	ce := FindCounterexample(sc, Precise{}, RunOptions{SampleRuns: 50})
	if ce == nil || ce.Seed < 0 || len(ce.Trace) == 0 {
		t.Fatalf("no traced sampling counterexample: %+v", ce)
	}
	c := sc.Config
	c.Seed = ce.Seed
	m := tso.NewMachine(c)
	defer m.Close()
	tr := tso.NewRingTracer(traceWindow)
	m.SetTracer(tr)
	h := NewHistory()
	if err := m.Run(sc.Build(m, h)...); err != nil {
		t.Fatal(err)
	}
	if got := RenderVerdict(Precise{}.Check(h)); got != ce.Outcome {
		t.Fatalf("seed %d reran to %q, want %q", ce.Seed, got, ce.Outcome)
	}
	if lines := traceLines(tr); !reflect.DeepEqual(lines, ce.Trace) {
		t.Fatalf("seed %d: counterexample trace differs from a traced rerun:\n%v\n%v", ce.Seed, ce.Trace, lines)
	}
}
