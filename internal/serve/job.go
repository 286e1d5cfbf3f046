package serve

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/tso"
)

// Job intake error taxonomy (the oracle.Program taxonomy covers the
// workload fields; these cover the service-level envelope).
var (
	// ErrBadModel rejects a memory model other than TSO — the frontier
	// wire format is model-tagged, but the service checks deque programs,
	// which are defined on the TSO machine.
	ErrBadModel = errors.New("serve: unsupported memory model")
	// ErrBadSpec rejects an unknown specification name.
	ErrBadSpec = errors.New("serve: unknown spec")
	// ErrBadBudget rejects a negative schedule budget.
	ErrBadBudget = errors.New("serve: max schedules must be >= 0")
	// ErrBadReorder rejects a negative reorder bound.
	ErrBadReorder = errors.New("serve: max reorderings must be >= 0")
	// ErrBadDPOR rejects a DPOR job that also sets a reorder bound: the
	// bound is not closed under the commuting swaps DPOR prunes by, so
	// the combination could drop reachable verdicts. It is the engine's
	// own refusal, tso.ErrDPORReorder.
	ErrBadDPOR = tso.ErrDPORReorder
)

// JobState is a job's position in its lifecycle.
type JobState string

// The job lifecycle: accepted but not yet planned, exploring, finished
// with a result, or failed with an error.
const (
	// StateQueued is a job accepted but not yet planned.
	StateQueued JobState = "queued"
	// StateRunning is a job whose frontier is being explored.
	StateRunning JobState = "running"
	// StateDone is a job with a final result.
	StateDone JobState = "done"
	// StateFailed is a job that errored (bad program behavior, panic).
	StateFailed JobState = "failed"
)

// JobSpec is the wire form of a verification job: an oracle program
// (deque workload) plus the contract to check and a schedule budget.
// It deliberately mirrors oracle.Program field for field so corpus
// entries translate one to one.
type JobSpec struct {
	// Algorithm names the queue implementation (core.ParseAlgo spelling:
	// "FF-CL", "the", "idempotent lifo", …).
	Algorithm string `json:"algorithm"`
	// Model is the memory model; empty or "TSO" (the only supported one,
	// matching tso.Checkpoint's model tag).
	Model string `json:"model,omitempty"`
	// S is the machine's store-buffer size.
	S int `json:"s"`
	// Stage enables the §7.3 post-retirement drain stage (bound S+1).
	Stage bool `json:"stage,omitempty"`
	// Delta is the δ parameter for the fence-free variants; zero selects
	// the machine's observable bound (the paper's sound choice).
	Delta int `json:"delta,omitempty"`
	// Capacity is the queue capacity (zero: oracle default).
	Capacity int `json:"capacity,omitempty"`
	// Prefill installs tasks 1..Prefill before the run.
	Prefill int `json:"prefill"`
	// WorkerOps is the owner's script: 'P' puts the next task, 'T' takes.
	WorkerOps string `json:"worker_ops"`
	// Thieves holds one steal-attempt budget per thief thread.
	Thieves []int `json:"thieves"`
	// Drain makes the worker end with a take-until-Empty loop, arming the
	// specs' loss detection.
	Drain bool `json:"drain,omitempty"`
	// Spec names the contract to check ("precise", "idempotent"); empty
	// selects the algorithm's own spec.
	Spec string `json:"spec,omitempty"`
	// MaxSchedules is the job's executed-schedule budget; zero selects
	// the server's default, and the server's MaxJobRuns caps it either
	// way.
	MaxSchedules int `json:"max_schedules,omitempty"`
	// NoPrune disables the count-preserving canonical-state memoization
	// for this job (diagnostics; the counts do not change).
	NoPrune bool `json:"no_prune,omitempty"`
	// MaxReorderings, when >= 1, bounds the store→load reorderings of
	// each explored schedule (tso.ExhaustiveOptions.MaxReorderings);
	// zero explores the full TSO[S] schedule space. The bound is stamped
	// into spooled checkpoints, so a restarted server resumes the job
	// under the same bound or refuses loudly.
	MaxReorderings int `json:"max_reorderings,omitempty"`
	// DPOR runs the job under source-set dynamic partial-order reduction
	// (tso.ExhaustiveOptions.DPOR): one executed schedule per
	// Mazurkiewicz class. The verdict set, Complete, and the existence
	// of violations are preserved; per-verdict Outcomes tallies collapse
	// to class representatives, so they are not comparable to an
	// unreduced job's. Mutually exclusive with MaxReorderings
	// (ErrBadDPOR); NoPrune is implied — memoization is superseded. The
	// mode is stamped into spooled checkpoints, so a restarted server
	// resumes the job under the same mode or refuses loudly. Each work
	// unit (Config.ShardUnits) and each slice resume re-derive
	// backtracking conservatively, so a finely split or heavily sliced
	// DPOR job keeps soundness but sheds part of the reduction. A DPOR
	// job's slices therefore resume one unit at a time: a slice boundary
	// falls inside a unit only when the unit outgrows Config.SliceRuns.
	DPOR bool `json:"dpor,omitempty"`
}

// Compile validates the spec and lowers it to the oracle types: the
// program (with δ defaulted to the machine's observable bound when
// omitted) and the specification to check. Errors classify under the
// serve and oracle taxonomies.
func (js JobSpec) Compile() (oracle.Program, oracle.Spec, error) {
	algo, ok := core.ParseAlgo(js.Algorithm)
	if !ok {
		return oracle.Program{}, nil, fmt.Errorf("%w: %q", oracle.ErrBadAlgo, js.Algorithm)
	}
	if js.Model != "" && !strings.EqualFold(js.Model, tso.ModelTSO.String()) {
		return oracle.Program{}, nil, fmt.Errorf("%w: %q", ErrBadModel, js.Model)
	}
	if js.MaxSchedules < 0 {
		return oracle.Program{}, nil, fmt.Errorf("%w: got %d", ErrBadBudget, js.MaxSchedules)
	}
	if js.MaxReorderings < 0 {
		return oracle.Program{}, nil, fmt.Errorf("%w: got %d", ErrBadReorder, js.MaxReorderings)
	}
	p := oracle.Program{
		Algo:      algo,
		S:         js.S,
		Stage:     js.Stage,
		Delta:     js.Delta,
		Capacity:  js.Capacity,
		Prefill:   js.Prefill,
		WorkerOps: js.WorkerOps,
		Thieves:   js.Thieves,
		Drain:     js.Drain,
	}
	if p.Delta == 0 && algo.UsesDelta() && p.S >= 1 {
		p.Delta = p.Config().ObservableBound()
	}
	if err := p.Validate(); err != nil {
		return oracle.Program{}, nil, err
	}
	if err := (tso.ExhaustiveOptions{DPOR: js.DPOR, MaxReorderings: js.MaxReorderings}).Validate(p.Config()); err != nil {
		return oracle.Program{}, nil, fmt.Errorf("serve: %w", err)
	}
	spec := p.Spec()
	if js.Spec != "" {
		s, ok := oracle.SpecByName(js.Spec)
		if !ok {
			return oracle.Program{}, nil, fmt.Errorf("%w: %q", ErrBadSpec, js.Spec)
		}
		spec = s
	}
	return p, spec, nil
}

// Witness is a replayable counterexample attached to a violating job:
// the verdict, the schedule's decision choices (tso.ReplaySchedule
// format, the same one corpus entries store), and a machine-level trace
// window. It comes from the exploration that produced the verdict
// (oracle.WitnessCounterexample), not from a second search.
type Witness struct {
	// Outcome is the canonical verdict string the schedule produced.
	Outcome string `json:"outcome"`
	// Choices is the violating schedule's decision prefix, replayable
	// with oracle.Replay.
	Choices []int `json:"choices"`
	// Trace is the machine-level event window of the violating run.
	Trace []string `json:"trace,omitempty"`
}

// JobResult is a finished job's folded exploration summary. Outcome
// counts are byte-identical to a direct in-process exploration of the
// same program — sharding, slicing, and resuming never move a count.
type JobResult struct {
	// Outcomes tallies schedules by canonical verdict ("ok", "lost t2",
	// "<step-limit>", …).
	Outcomes map[string]int `json:"outcomes"`
	// Schedules is the number of schedules accounted for (with pruning,
	// more than were executed).
	Schedules int `json:"schedules"`
	// Executed is the number of schedules actually run on a machine.
	Executed int `json:"executed"`
	// StepLimited counts schedules that hit the per-run step bound.
	StepLimited int `json:"step_limited,omitempty"`
	// Complete reports whether the whole decision tree was covered; false
	// means the budget ran out first.
	Complete bool `json:"complete"`
	// Violating is the number of accounted schedules whose verdict was a
	// violation (oracle.IsViolation).
	Violating int `json:"violating"`
	// MaxOccupancy is the per-thread store-buffer high-water mark over
	// every explored schedule — the observed reordering-bound witness.
	MaxOccupancy []int `json:"max_occupancy"`
	// Tree reports the explored decision tree's shape.
	Tree tso.TreeStats `json:"tree"`
	// Prune reports the memoization savings.
	Prune tso.PruneStats `json:"prune"`
	// Memo reports the striped memo arena's saturation and contention,
	// summed across the job's slices.
	Memo tso.MemoStats `json:"memo"`
	// Witness is the smallest violating schedule the job's slices
	// executed, so it lies within the job's reorder bound; present
	// exactly when Violating > 0, and unchanged by a restart. Under DPOR
	// it can differ from the one an unreduced exploration would pick.
	Witness *Witness `json:"witness,omitempty"`
}

// violating sums the verdict counts that are violations
// (oracle.IsViolation).
func violating(counts map[string]int) int {
	n := 0
	for o, c := range counts {
		if oracle.IsViolation(o) {
			n += c
		}
	}
	return n
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// State is the lifecycle position.
	State JobState `json:"state"`
	// Spec echoes the submitted job.
	Spec JobSpec `json:"spec"`
	// Executed is the running count of schedules executed so far.
	Executed int `json:"executed"`
	// OutstandingUnits is the number of frontier work units the job's
	// next slice resumes (zero once the job completes; a job that ran out
	// of budget keeps its open units).
	OutstandingUnits int `json:"outstanding_units,omitempty"`
	// Error describes a failed job.
	Error string `json:"error,omitempty"`
	// Result is the final summary, present once State is done.
	Result *JobResult `json:"result,omitempty"`
}
